package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"graphct/internal/gen"
	"graphct/internal/graph"
)

func TestTrianglesComplete(t *testing.T) {
	tri := Triangles(gen.Complete(5))
	for v, c := range tri {
		if c != 6 { // C(4,2) triangles per vertex in K5
			t.Fatalf("K5 tri[%d] = %d, want 6", v, c)
		}
	}
}

func TestTrianglesTreeZero(t *testing.T) {
	for _, c := range Triangles(gen.BinaryTree(31)) {
		if c != 0 {
			t.Fatal("trees have no triangles")
		}
	}
	if Global(gen.BinaryTree(31)) != 0 {
		t.Fatal("tree transitivity != 0")
	}
}

func TestCoefficientsTriangleWithTail(t *testing.T) {
	// Triangle 0-1-2 with tail 2-3.
	g, _ := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}}, graph.Options{})
	coef := Coefficients(g)
	want := []float64{1, 1, 1.0 / 3, 0}
	for v, w := range want {
		if math.Abs(coef[v]-w) > 1e-12 {
			t.Fatalf("coef = %v, want %v", coef, want)
		}
	}
}

func TestCoefficientsComplete(t *testing.T) {
	for _, c := range Coefficients(gen.Complete(7)) {
		if math.Abs(c-1) > 1e-12 {
			t.Fatalf("K7 coefficient = %v, want 1", c)
		}
	}
	if g := Global(gen.Complete(7)); math.Abs(g-1) > 1e-12 {
		t.Fatalf("K7 transitivity = %v", g)
	}
}

func TestGlobalEmptyAndTiny(t *testing.T) {
	if Global(graph.Empty(5, false)) != 0 {
		t.Fatal("empty graph transitivity != 0")
	}
	if Global(gen.Path(2)) != 0 {
		t.Fatal("single-edge transitivity != 0")
	}
}

func TestSelfLoopsIgnored(t *testing.T) {
	g, _ := graph.FromEdges(3, []graph.Edge{{U: 0, V: 0}, {U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}},
		graph.Options{KeepSelfLoops: true})
	tri := Triangles(g)
	if tri[0] != 1 || tri[1] != 1 || tri[2] != 1 {
		t.Fatalf("tri with self loop = %v, want all 1", tri)
	}
	coef := Coefficients(g)
	if math.Abs(coef[0]-1) > 1e-12 {
		t.Fatalf("coef[0] = %v, want 1 (loop ignored)", coef[0])
	}
}

func TestDirectedProjection(t *testing.T) {
	d, _ := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}, graph.Options{Directed: true})
	tri := Triangles(d)
	if tri[0] != 1 {
		t.Fatalf("directed triangle projected tri = %v", tri)
	}
}

// Brute-force triangle reference.
func bruteTriangles(g *graph.Graph) []int64 {
	n := g.NumVertices()
	tri := make([]int64, n)
	for a := int32(0); a < int32(n); a++ {
		for b := a + 1; b < int32(n); b++ {
			if !g.HasEdge(a, b) {
				continue
			}
			for c := b + 1; c < int32(n); c++ {
				if g.HasEdge(a, c) && g.HasEdge(b, c) {
					tri[a]++
					tri[b]++
					tri[c]++
				}
			}
		}
	}
	return tri
}

func TestPropertyTrianglesMatchBrute(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(30, 120, seed)
		want := bruteTriangles(g)
		got := Triangles(g)
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: coefficients lie in [0,1] and transitivity in [0,1].
func TestPropertyCoefficientRange(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.PreferentialAttachment(80, 3, seed)
		for _, c := range Coefficients(g) {
			if c < 0 || c > 1 {
				return false
			}
		}
		gc := Global(g)
		return gc >= 0 && gc <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
