package gen

import (
	"testing"

	"graphct/internal/graph"
)

func TestFollowerShape(t *testing.T) {
	g := Follower(DefaultFollower(2000, 1))
	if !g.Directed() {
		t.Fatal("follower graph must be directed")
	}
	if g.NumVertices() != 2000 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	avg := float64(g.NumArcs()) / 2000
	if avg < 5 || avg > 80 {
		t.Fatalf("average out-degree %v far from target", avg)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFollowerInDegreeSkew(t *testing.T) {
	g := Follower(DefaultFollower(3000, 2))
	in := make([]int64, 3000)
	for v := 0; v < 3000; v++ {
		for _, w := range g.Neighbors(int32(v)) {
			in[w]++
		}
	}
	var max, sum int64
	for _, c := range in {
		sum += c
		if c > max {
			max = c
		}
	}
	mean := float64(sum) / 3000
	if float64(max) < 20*mean {
		t.Fatalf("in-degree not skewed: max %d vs mean %.1f", max, mean)
	}
}

func TestFollowerReciprocity(t *testing.T) {
	p := DefaultFollower(2000, 3)
	g := Follower(p)
	r := reciprocityOf(g)
	// Dedup and popularity collisions push measured reciprocity around
	// the knob; it must land in a broad band around 0.22 and far from
	// both extremes.
	if r < 0.10 || r > 0.45 {
		t.Fatalf("reciprocity %v outside plausible band", r)
	}
	p.Reciprocity = 0.9
	high := reciprocityOf(Follower(p))
	if high <= r {
		t.Fatalf("raising the knob did not raise reciprocity: %v vs %v", high, r)
	}
}

func TestFollowerDeterministic(t *testing.T) {
	a := Follower(DefaultFollower(500, 7))
	b := Follower(DefaultFollower(500, 7))
	if a.NumArcs() != b.NumArcs() {
		t.Fatal("nondeterministic generation")
	}
}

func TestFollowerDegenerate(t *testing.T) {
	g := Follower(FollowerParams{Vertices: 0, AvgOut: 0, Exponent: 0.5, Seed: 1})
	if g.NumVertices() != 2 {
		t.Fatalf("clamps failed: %v", g)
	}
}

func TestReciprocityOfExtremes(t *testing.T) {
	if reciprocityOf(graph.Empty(3, true)) != 0 {
		t.Fatal("empty reciprocity != 0")
	}
	d, _ := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 0}}, graph.Options{Directed: true})
	if reciprocityOf(d) != 1 {
		t.Fatal("mutual pair reciprocity != 1")
	}
	one, _ := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}, graph.Options{Directed: true})
	if reciprocityOf(one) != 0 {
		t.Fatal("one-way reciprocity != 0")
	}
}

// reciprocityOf measures the fraction of arcs in a directed graph whose
// reverse arc also exists.
func reciprocityOf(g *graph.Graph) float64 {
	if g.NumArcs() == 0 {
		return 0
	}
	var mutual int64
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(v) {
			if g.HasEdge(w, v) {
				mutual++
			}
		}
	}
	return float64(mutual) / float64(g.NumArcs())
}
