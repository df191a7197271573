package graph

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestUndirectedFromDirected(t *testing.T) {
	d, err := FromEdges(3, []Edge{{0, 1}, {1, 0}, {1, 2}}, Options{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	u := d.Undirected()
	if u.Directed() {
		t.Fatal("Undirected() returned directed graph")
	}
	if u.NumEdges() != 2 {
		t.Fatalf("undirected edges = %d, want 2 (0-1 merged)", u.NumEdges())
	}
	if !u.HasEdge(2, 1) {
		t.Fatal("reverse arc missing after symmetrize")
	}
	if err := u.Validate(); err != nil {
		t.Fatal(err)
	}
	// Idempotent on undirected input.
	if u.Undirected() != u {
		t.Fatal("Undirected() of undirected graph should be identity")
	}
}

func TestInduced(t *testing.T) {
	g := mustUndirected(t, 4, testEdges())
	sub, orig := g.Induced([]bool{true, true, true, false})
	if sub.NumVertices() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("induced triangle: %v", sub)
	}
	if len(orig) != 3 || orig[0] != 0 || orig[2] != 2 {
		t.Fatalf("origID = %v", orig)
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInducedEmptySelection(t *testing.T) {
	g := mustUndirected(t, 4, testEdges())
	sub, orig := g.Induced(make([]bool, 4))
	if sub.NumVertices() != 0 || len(orig) != 0 {
		t.Fatal("empty selection should give empty graph")
	}
}

func TestInducedDirectedKeepsOrientation(t *testing.T) {
	d, _ := FromEdges(4, []Edge{{0, 1}, {1, 0}, {2, 3}}, Options{Directed: true})
	sub, _ := d.Induced([]bool{true, true, false, false})
	if !sub.Directed() || sub.NumArcs() != 2 {
		t.Fatalf("directed induced: %v", sub)
	}
}

func TestInducedByColor(t *testing.T) {
	g := mustUndirected(t, 5, []Edge{{0, 1}, {2, 3}, {3, 4}})
	colors := []int32{7, 7, 9, 9, 9}
	sub, orig := g.InducedByColor(colors, 9)
	if sub.NumVertices() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("color-9 subgraph wrong: %v", sub)
	}
	if orig[0] != 2 {
		t.Fatalf("origID = %v", orig)
	}
}

func TestReciprocalCore(t *testing.T) {
	// 0<->1 converse; 2 broadcasts to everyone, only 1 replies to 2.
	d, _ := FromEdges(4, []Edge{
		{0, 1}, {1, 0},
		{2, 0}, {2, 1}, {2, 3},
		{1, 2},
	}, Options{Directed: true})
	core := d.ReciprocalCore()
	if core.Directed() {
		t.Fatal("reciprocal core should be undirected")
	}
	if core.NumEdges() != 2 {
		t.Fatalf("core edges = %d, want 2 (0-1 and 1-2)", core.NumEdges())
	}
	if !core.HasEdge(0, 1) || !core.HasEdge(1, 2) || core.HasEdge(2, 3) {
		t.Fatal("wrong reciprocal pairs")
	}
}

func TestReciprocalCoreIgnoresSelfLoops(t *testing.T) {
	d, _ := FromEdges(2, []Edge{{0, 0}, {0, 1}}, Options{Directed: true, KeepSelfLoops: true})
	core := d.ReciprocalCore()
	if core.NumEdges() != 0 {
		t.Fatalf("self loop counted as reciprocal: %d edges", core.NumEdges())
	}
}

func TestDropIsolatedDirectedKeepsSinks(t *testing.T) {
	// Vertex 1 is only ever mentioned (in-arcs only); vertex 2 is truly
	// isolated.
	d, _ := FromEdges(3, []Edge{{0, 1}}, Options{Directed: true})
	sub, orig := d.DropIsolated()
	if sub.NumVertices() != 2 {
		t.Fatalf("kept %d vertices, want 2 (sink retained)", sub.NumVertices())
	}
	if orig[0] != 0 || orig[1] != 1 {
		t.Fatalf("orig = %v", orig)
	}
}

func TestDropIsolated(t *testing.T) {
	g := mustUndirected(t, 6, []Edge{{1, 4}})
	sub, orig := g.DropIsolated()
	if sub.NumVertices() != 2 || sub.NumEdges() != 1 {
		t.Fatalf("DropIsolated: %v", sub)
	}
	if orig[0] != 1 || orig[1] != 4 {
		t.Fatalf("origID = %v", orig)
	}
}

// Property: the reciprocal core of any directed graph is a subgraph of its
// undirected projection, and every core edge is mutual in the original.
func TestPropertyReciprocalSubset(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30
		edges := make([]Edge, 150)
		for i := range edges {
			edges[i] = Edge{int32(rng.Intn(n)), int32(rng.Intn(n))}
		}
		d, err := FromEdges(n, edges, Options{Directed: true})
		if err != nil {
			return false
		}
		core := d.ReciprocalCore()
		for v := 0; v < n; v++ {
			for _, w := range core.Neighbors(int32(v)) {
				if !d.HasEdge(int32(v), w) || !d.HasEdge(w, int32(v)) {
					return false
				}
			}
		}
		return core.NumEdges() <= d.NumArcs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: an induced subgraph never has more edges than the original and
// all its edges map back to edges of the original.
func TestPropertyInducedEdgesMapBack(t *testing.T) {
	f := func(seed int64, mask uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 32
		edges := make([]Edge, 100)
		for i := range edges {
			edges[i] = Edge{int32(rng.Intn(n)), int32(rng.Intn(n))}
		}
		g, err := FromEdges(n, edges, Options{})
		if err != nil {
			return false
		}
		keep := make([]bool, n)
		for v := 0; v < n; v++ {
			keep[v] = mask&(1<<uint(v)) != 0
		}
		sub, orig := g.Induced(keep)
		if sub.NumEdges() > g.NumEdges() {
			return false
		}
		for v := 0; v < sub.NumVertices(); v++ {
			for _, w := range sub.Neighbors(int32(v)) {
				if !g.HasEdge(orig[v], orig[w]) {
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

// DedupEdges retired with the builders that used it; these tests pin the
// copy in oracle_test.go that the differential tests take as the truth.
func TestDedupEdgesLargeRadixPath(t *testing.T) {
	// Exceed the radix threshold and verify against a map-based dedup.
	rng := rand.New(rand.NewSource(4))
	edges := make([]Edge, 40000)
	for i := range edges {
		edges[i] = Edge{U: int32(rng.Intn(300)), V: int32(rng.Intn(300))}
	}
	want := map[Edge]bool{}
	for _, e := range edges {
		want[e.canon()] = true
	}
	out := oracleDedupEdges(edges, true)
	if len(out) != len(want) {
		t.Fatalf("dedup kept %d, want %d", len(out), len(want))
	}
	for i, e := range out {
		if !want[e] {
			t.Fatalf("unexpected edge %v", e)
		}
		if i > 0 && (out[i-1].U > e.U || (out[i-1].U == e.U && out[i-1].V >= e.V)) {
			t.Fatalf("output not strictly sorted at %d", i)
		}
	}
}

func TestDedupEdgesNegativeFallsBack(t *testing.T) {
	// Negative ids (invalid for graphs but legal for the helper) must use
	// the comparison sort and still dedup correctly.
	edges := make([]Edge, 20000)
	for i := range edges {
		edges[i] = Edge{U: int32(i%5) - 2, V: int32(i%7) - 3}
	}
	out := oracleDedupEdges(edges, false)
	if len(out) != 35 {
		t.Fatalf("negative dedup kept %d, want 35", len(out))
	}
}

func TestDedupEdgesHelper(t *testing.T) {
	edges := []Edge{{3, 1}, {1, 3}, {0, 2}, {0, 2}}
	out := oracleDedupEdges(edges, true)
	if len(out) != 2 {
		t.Fatalf("dedup undirected kept %d, want 2", len(out))
	}
	edges = []Edge{{3, 1}, {1, 3}, {1, 3}}
	out = oracleDedupEdges(edges, false)
	if len(out) != 2 {
		t.Fatalf("dedup directed kept %d, want 2", len(out))
	}
}

func TestUndirectedMemoized(t *testing.T) {
	g, err := FromEdges(4, []Edge{{0, 1}, {1, 2}, {3, 0}}, Options{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.UndirectedBuilds() != 0 {
		t.Fatalf("symmetrized before any Undirected() call: %d", g.UndirectedBuilds())
	}
	u1 := g.Undirected()
	u2 := g.Undirected()
	if u1 != u2 {
		t.Fatal("Undirected() returned distinct views across calls")
	}
	if g.UndirectedBuilds() != 1 {
		t.Fatalf("builds = %d, want 1", g.UndirectedBuilds())
	}
	if u1.Directed() {
		t.Fatal("undirected view reports directed")
	}
	// The view of an undirected graph is itself, never rebuilt.
	if u1.Undirected() != u1 {
		t.Fatal("Undirected() of an undirected graph is not itself")
	}
}

func TestUndirectedMemoConcurrent(t *testing.T) {
	g, err := FromEdges(100, []Edge{{0, 1}, {5, 9}, {99, 3}, {42, 7}}, Options{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	views := make([]*Graph, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func(i int) {
			defer wg.Done()
			views[i] = g.Undirected()
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if views[i] != views[0] {
			t.Fatal("concurrent Undirected() calls returned distinct views")
		}
	}
	if g.UndirectedBuilds() != 1 {
		t.Fatalf("concurrent calls symmetrized %d times, want 1", g.UndirectedBuilds())
	}
}
