package kcore

import (
	"slices"
	"testing"
	"testing/quick"

	"graphct/internal/gen"
	"graphct/internal/graph"
)

func TestDecomposeRing(t *testing.T) {
	core := Decompose(gen.Ring(10))
	for v, c := range core {
		if c != 2 {
			t.Fatalf("ring core[%d] = %d, want 2", v, c)
		}
	}
}

func TestDecomposeStar(t *testing.T) {
	core := Decompose(gen.Star(10))
	for v, c := range core {
		if c != 1 {
			t.Fatalf("star core[%d] = %d, want 1", v, c)
		}
	}
}

func TestDecomposeComplete(t *testing.T) {
	core := Decompose(gen.Complete(6))
	for v, c := range core {
		if c != 5 {
			t.Fatalf("K6 core[%d] = %d, want 5", v, c)
		}
	}
}

func TestDecomposeCliqueWithTail(t *testing.T) {
	// K4 on {0..3} plus tail 3-4-5.
	edges := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 5}}
	g, _ := graph.FromEdges(6, edges, graph.Options{})
	core := Decompose(g)
	want := []int32{3, 3, 3, 3, 1, 1}
	for v, c := range want {
		if core[v] != c {
			t.Fatalf("core = %v, want %v", core, want)
		}
	}
}

func TestDecomposeIsolated(t *testing.T) {
	g, _ := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}}, graph.Options{})
	core := Decompose(g)
	if core[2] != 0 || core[0] != 1 {
		t.Fatalf("core = %v", core)
	}
}

func TestDecomposeEmpty(t *testing.T) {
	if got := Decompose(graph.Empty(0, false)); len(got) != 0 {
		t.Fatal("empty graph core should be empty")
	}
}

func TestMaxCore(t *testing.T) {
	if slices.Max(Decompose(gen.Complete(5))) != 4 {
		t.Fatal("K5 degeneracy != 4")
	}
	if slices.Max(Decompose(gen.BinaryTree(15))) != 1 {
		t.Fatal("tree degeneracy != 1")
	}
}

func TestExtract(t *testing.T) {
	g := gen.Disjoint(gen.Complete(4), gen.Path(5))
	sub, orig := Extract(g, 2)
	if sub.NumVertices() != 4 || sub.NumEdges() != 6 {
		t.Fatalf("2-core = %v", sub)
	}
	if orig[0] != 0 {
		t.Fatalf("orig = %v", orig)
	}
	all, _ := Extract(g, 0)
	if all.NumVertices() != 9 {
		t.Fatal("0-core should keep everything")
	}
	none, _ := Extract(g, 4)
	if none.NumVertices() != 0 {
		t.Fatal("4-core of K4+path should be empty")
	}
}

func TestDirectedUsesProjection(t *testing.T) {
	d, _ := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}, graph.Options{Directed: true})
	core := Decompose(d)
	for _, c := range core {
		if c != 2 {
			t.Fatalf("directed triangle core = %v", core)
		}
	}
}

// Property: the k-core, as extracted, has minimum degree >= k, and core
// numbers are monotone under the definition (every vertex with core >= k
// keeps >= k neighbors with core >= k).
func TestPropertyCoreInvariant(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(60, 180, seed)
		core := Decompose(g)
		for k := int32(1); k <= 4; k++ {
			sub, _ := Extract(g, k)
			for v := 0; v < sub.NumVertices(); v++ {
				if int32(sub.Degree(int32(v))) < k {
					return false
				}
			}
		}
		// core[v] <= degree(v) always.
		for v := 0; v < 60; v++ {
			if core[v] > int32(g.Degree(int32(v))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
