package cc

import (
	"testing"
	"testing/quick"

	"graphct/internal/bfs"
	"graphct/internal/gen"
	"graphct/internal/graph"
)

func TestSingleComponent(t *testing.T) {
	r := Components(gen.Ring(20))
	if r.Count != 1 {
		t.Fatalf("ring components = %d, want 1", r.Count)
	}
	for v, c := range r.Colors {
		if c != 0 {
			t.Fatalf("colors[%d] = %d, want 0", v, c)
		}
	}
}

func TestDisjointComponents(t *testing.T) {
	g := gen.Disjoint(gen.Ring(5), gen.Path(3), gen.Star(7))
	r := Components(g)
	if r.Count != 3 {
		t.Fatalf("components = %d, want 3", r.Count)
	}
	if r.Colors[0] != r.Colors[4] || r.Colors[0] == r.Colors[5] {
		t.Fatal("component membership wrong")
	}
	census := r.Census()
	if len(census) != 3 || census[0].Size != 7 || census[1].Size != 5 || census[2].Size != 3 {
		t.Fatalf("census = %v", census)
	}
	// Labels are smallest member ids: 0 (ring), 5 (path), 8 (star).
	if census[0].Label != 8 || census[1].Label != 0 || census[2].Label != 5 {
		t.Fatalf("census labels = %v", census)
	}
}

func TestIsolatedVertices(t *testing.T) {
	g, err := graph.FromEdges(5, []graph.Edge{{U: 1, V: 2}}, graph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := Components(g)
	if r.Count != 4 {
		t.Fatalf("components = %d, want 4 (3 singletons + one edge)", r.Count)
	}
}

func TestEmptyGraph(t *testing.T) {
	r := Components(graph.Empty(0, false))
	if r.Count != 0 || len(r.Colors) != 0 {
		t.Fatal("empty graph should have zero components")
	}
}

func TestDirectedWeakConnectivity(t *testing.T) {
	// 0 -> 1 -> 2 with no back arcs is still one weak component.
	g, _ := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, graph.Options{Directed: true})
	r := Components(g)
	if r.Count != 2 {
		t.Fatalf("weak components = %d, want 2 ({0,1,2} and {3})", r.Count)
	}
	if r.Colors[0] != r.Colors[2] {
		t.Fatal("0 and 2 should be weakly connected")
	}
}

func TestExtract(t *testing.T) {
	g := gen.Disjoint(gen.Path(3), gen.Ring(6))
	r := Components(g)
	sub, orig := Extract(g, r, 1)
	if sub.NumVertices() != 6 || sub.NumEdges() != 6 {
		t.Fatalf("largest = %v", sub)
	}
	if orig[0] != 3 {
		t.Fatalf("origID = %v", orig)
	}
	second, _ := Extract(g, r, 2)
	if second.NumVertices() != 3 {
		t.Fatalf("second component n = %d", second.NumVertices())
	}
	empty, _ := Extract(g, r, 3)
	if empty.NumVertices() != 0 {
		t.Fatal("rank beyond count should be empty")
	}
	empty, _ = Extract(g, r, 0)
	if empty.NumVertices() != 0 {
		t.Fatal("rank 0 should be empty")
	}
}

func TestLargest(t *testing.T) {
	g := gen.Disjoint(gen.Star(4), gen.Complete(5))
	lwcc, orig := Largest(g)
	if lwcc.NumVertices() != 5 || lwcc.NumEdges() != 10 {
		t.Fatalf("LWCC = %v", lwcc)
	}
	if len(orig) != 5 || orig[0] != 4 {
		t.Fatalf("orig = %v", orig)
	}
}

// Property: labeling agrees with BFS reachability on random graphs.
func TestPropertyMatchesBFS(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(100, 90, seed) // sparse => many components
		r := Components(g)
		reach := bfs.Search(g, 0)
		for v := 0; v < 100; v++ {
			if reach.Reached(int32(v)) != (r.Colors[0] == r.Colors[v]) {
				return false
			}
		}
		// Colors must be component minima: colors[v] <= v and
		// colors[colors[v]] == colors[v].
		for v, c := range r.Colors {
			if c > int32(v) || r.Colors[c] != c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: census sizes sum to the vertex count and are sorted descending.
func TestPropertyCensusPartition(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(80, 60, seed)
		census := Components(g).Census()
		var sum int64
		for i, c := range census {
			sum += c.Size
			if i > 0 && census[i-1].Size < c.Size {
				return false
			}
		}
		return sum == int64(g.NumVertices())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLongChainConverges(t *testing.T) {
	// A long path stresses the pointer-jumping phase.
	r := Components(gen.Path(5000))
	if r.Count != 1 {
		t.Fatalf("path components = %d", r.Count)
	}
}

// serialLabels labels components one BFS at a time, smallest unlabelled
// vertex first, so every component gets its smallest id — the reference
// Components is compared against.
func serialLabels(g *graph.Graph) []int32 {
	labels := make([]int32, g.NumVertices())
	for v := range labels {
		labels[v] = -1
	}
	for v := range labels {
		if labels[v] != -1 {
			continue
		}
		for _, w := range bfs.Search(g, int32(v)).Order {
			labels[w] = int32(v)
		}
	}
	return labels
}

func sameLabels(r *Result, want []int32) bool {
	count := 0
	for v, c := range want {
		if r.Colors[v] != c {
			return false
		}
		if c == int32(v) {
			count++
		}
	}
	return r.Count == count
}

// Property: the hook-and-jump kernel produces exactly the serial BFS
// labeling on random graphs — including sparse graphs with many
// components.
func TestPropertyComponentsBFSEquivalent(t *testing.T) {
	f := func(seed int64, mRaw uint8) bool {
		m := int(mRaw)%200 + 10
		g := gen.ErdosRenyi(120, m, seed)
		return sameLabels(Components(g), serialLabels(g))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestComponentsBFSLongChain(t *testing.T) {
	g := gen.Path(3000)
	r := Components(g)
	if !sameLabels(r, serialLabels(g)) || r.Count != 1 || r.Colors[2999] != 0 {
		t.Fatalf("path labeling: count=%d tail=%d", r.Count, r.Colors[2999])
	}
}

func BenchmarkComponentsRMAT14(b *testing.B) {
	g := gen.RMAT(gen.PaperRMAT(14, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Components(g)
	}
}
