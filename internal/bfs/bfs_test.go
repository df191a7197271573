package bfs

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphct/internal/gen"
	"graphct/internal/graph"
)

func TestSearchPath(t *testing.T) {
	g := gen.Path(6)
	r := Search(g, 0)
	for v := 0; v < 6; v++ {
		if r.Level[v] != int32(v) {
			t.Errorf("level[%d] = %d, want %d", v, r.Level[v], v)
		}
	}
	if r.Depth != 5 {
		t.Fatalf("depth = %d, want 5", r.Depth)
	}
	if r.NumReached() != 6 {
		t.Fatalf("reached %d, want 6", r.NumReached())
	}
}

func TestSearchStar(t *testing.T) {
	g := gen.Star(100)
	r := Search(g, 0)
	if r.Depth != 1 {
		t.Fatalf("star depth = %d", r.Depth)
	}
	for v := 1; v < 100; v++ {
		if r.Level[v] != 1 || r.Parent[v] != 0 {
			t.Fatalf("leaf %d level=%d parent=%d", v, r.Level[v], r.Parent[v])
		}
	}
	leaf := Search(g, 57)
	if leaf.Depth != 2 || leaf.Level[0] != 1 {
		t.Fatalf("leaf search depth=%d level[hub]=%d", leaf.Depth, leaf.Level[0])
	}
}

func TestSearchDisconnected(t *testing.T) {
	g := gen.Disjoint(gen.Path(3), gen.Ring(4))
	r := Search(g, 0)
	if r.NumReached() != 3 {
		t.Fatalf("reached %d, want 3", r.NumReached())
	}
	for v := 3; v < 7; v++ {
		if r.Reached(int32(v)) {
			t.Fatalf("vertex %d in other component reached", v)
		}
		if r.Parent[v] != Unreached {
			t.Fatalf("unreached vertex %d has parent %d", v, r.Parent[v])
		}
	}
}

func TestSearchBounded(t *testing.T) {
	g := gen.Path(10)
	r := SearchBounded(g, 0, 3)
	if r.NumReached() != 4 {
		t.Fatalf("bounded reached %d, want 4", r.NumReached())
	}
	if r.Depth != 3 {
		t.Fatalf("bounded depth = %d, want 3", r.Depth)
	}
	if r.Reached(4) {
		t.Fatal("vertex beyond bound reached")
	}
	zero := SearchBounded(g, 5, 0)
	if zero.NumReached() != 1 || zero.Depth != 0 {
		t.Fatal("zero-depth search should visit only the source")
	}
}

func TestSearchInvalidSource(t *testing.T) {
	g := gen.Path(3)
	r := Search(g, -1)
	if r.NumReached() != 0 {
		t.Fatal("negative source should reach nothing")
	}
	r = Search(g, 99)
	if r.NumReached() != 0 {
		t.Fatal("out-of-range source should reach nothing")
	}
}

func TestSearchEmptyGraph(t *testing.T) {
	g := graph.Empty(0, false)
	r := Search(g, 0)
	if r.NumReached() != 0 {
		t.Fatal("empty graph search reached vertices")
	}
}

func TestOrderIsLevelMonotone(t *testing.T) {
	g := gen.ErdosRenyi(300, 900, 4)
	r := Search(g, 0)
	for i := 1; i < len(r.Order); i++ {
		if r.Level[r.Order[i]] < r.Level[r.Order[i-1]] {
			t.Fatalf("order not level-monotone at %d", i)
		}
	}
}

func TestParentLevels(t *testing.T) {
	g := gen.ErdosRenyi(200, 700, 9)
	r := Search(g, 3)
	for v := 0; v < 200; v++ {
		if !r.Reached(int32(v)) || int32(v) == r.Source {
			continue
		}
		p := r.Parent[v]
		if p == Unreached {
			t.Fatalf("reached vertex %d missing parent", v)
		}
		if r.Level[p] != r.Level[v]-1 {
			t.Fatalf("parent level mismatch at %d: %d vs %d", v, r.Level[p], r.Level[v])
		}
		if !g.HasEdge(p, int32(v)) {
			t.Fatalf("parent %d not adjacent to %d", p, v)
		}
	}
}

// Reference sequential BFS for cross-checking.
func seqLevels(g *graph.Graph, src int32) []int32 {
	n := g.NumVertices()
	level := make([]int32, n)
	for i := range level {
		level[i] = Unreached
	}
	if int(src) >= n || src < 0 {
		return level
	}
	level[src] = 0
	q := []int32{src}
	for len(q) > 0 {
		u := q[0]
		q = q[1:]
		for _, v := range g.Neighbors(u) {
			if level[v] == Unreached {
				level[v] = level[u] + 1
				q = append(q, v)
			}
		}
	}
	return level
}

// Property: parallel BFS levels equal sequential BFS levels on random
// graphs.
func TestPropertyMatchesSequential(t *testing.T) {
	f := func(seed int64, srcRaw uint8) bool {
		g := gen.ErdosRenyi(120, 300, seed)
		src := int32(srcRaw) % 120
		want := seqLevels(g, src)
		got := Search(g, src).Level
		for v := range want {
			if want[v] != got[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality on BFS levels — adjacent vertices' levels
// differ by at most 1 when both reached.
func TestPropertyLevelLipschitz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := gen.PreferentialAttachment(150, 2, seed)
		r := Search(g, int32(rng.Intn(150)))
		for v := 0; v < 150; v++ {
			for _, w := range g.Neighbors(int32(v)) {
				lv, lw := r.Level[v], r.Level[w]
				if lv == Unreached || lw == Unreached {
					if lv != lw {
						return false // one side of an edge reached but not the other
					}
					continue
				}
				if lv-lw > 1 || lw-lv > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
