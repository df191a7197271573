package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// triangle plus a pendant: 0-1, 1-2, 2-0, 2-3
func testEdges() []Edge {
	return []Edge{{0, 1}, {1, 2}, {2, 0}, {2, 3}}
}

func mustUndirected(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFromEdgesUndirectedBasics(t *testing.T) {
	g := mustUndirected(t, 4, testEdges())
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if g.NumArcs() != 8 {
		t.Fatalf("NumArcs = %d, want 8", g.NumArcs())
	}
	wantDeg := []int{2, 2, 3, 1}
	for v, d := range wantDeg {
		if g.Degree(int32(v)) != d {
			t.Errorf("deg(%d) = %d, want %d", v, g.Degree(int32(v)), d)
		}
	}
	if !g.HasEdge(3, 2) || !g.HasEdge(2, 3) {
		t.Error("symmetrized edge 2-3 missing")
	}
	if g.HasEdge(0, 3) {
		t.Error("phantom edge 0-3")
	}
}

func TestFromEdgesDirected(t *testing.T) {
	g, err := FromEdges(3, []Edge{{0, 1}, {1, 2}, {2, 0}}, Options{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 || g.NumArcs() != 3 {
		t.Fatalf("directed edges = %d arcs = %d, want 3,3", g.NumEdges(), g.NumArcs())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Error("directed arcs wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesDedup(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 0}, {0, 1}, {0, 1}}
	g := mustUndirected(t, 2, edges)
	if g.NumEdges() != 1 {
		t.Fatalf("dedup kept %d edges, want 1", g.NumEdges())
	}
	multi, err := FromEdges(2, []Edge{{0, 1}, {1, 0}, {0, 1}}, Options{KeepDuplicates: true})
	if err != nil {
		t.Fatal(err)
	}
	if multi.NumArcs() != 6 {
		t.Fatalf("multigraph arcs = %d, want 6", multi.NumArcs())
	}
}

func TestFromEdgesSelfLoops(t *testing.T) {
	edges := []Edge{{0, 0}, {0, 1}}
	g := mustUndirected(t, 2, edges)
	if g.HasEdge(0, 0) {
		t.Error("self loop not dropped by default")
	}
	kept, err := FromEdges(2, []Edge{{0, 0}, {0, 1}}, Options{KeepSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	if !kept.HasEdge(0, 0) {
		t.Error("self loop dropped despite KeepSelfLoops")
	}
	if kept.NumEdges() != 2 {
		t.Fatalf("edges with loop = %d, want 2", kept.NumEdges())
	}
	if err := kept.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdgesOutOfRange(t *testing.T) {
	if _, err := FromEdges(2, []Edge{{0, 2}}, Options{}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := FromEdges(2, []Edge{{-1, 0}}, Options{}); err == nil {
		t.Fatal("expected negative-vertex error")
	}
	if _, err := FromEdges(-1, nil, Options{}); err == nil {
		t.Fatal("expected negative-count error")
	}
}

func TestFromEdgesIsolatedVertices(t *testing.T) {
	g := mustUndirected(t, 10, []Edge{{0, 1}})
	if g.NumVertices() != 10 {
		t.Fatalf("NumVertices = %d, want 10", g.NumVertices())
	}
	for v := 2; v < 10; v++ {
		if g.Degree(int32(v)) != 0 {
			t.Errorf("isolated vertex %d has degree %d", v, g.Degree(int32(v)))
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	g := Empty(5, false)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 || g.NumVertices() != 5 {
		t.Fatal("empty graph wrong shape")
	}
	zero := Empty(0, true)
	if err := zero.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAdjacencySorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var edges []Edge
	for i := 0; i < 2000; i++ {
		edges = append(edges, Edge{int32(rng.Intn(100)), int32(rng.Intn(100))})
	}
	g := mustUndirected(t, 100, edges)
	for v := 0; v < 100; v++ {
		nbr := g.Neighbors(int32(v))
		for i := 1; i < len(nbr); i++ {
			if nbr[i-1] >= nbr[i] {
				t.Fatalf("vertex %d adjacency unsorted or duplicated: %v", v, nbr)
			}
		}
	}
}

func TestFromWeightedEdges(t *testing.T) {
	g, err := FromWeightedEdges(3, []WeightedEdge{{0, 1, 5}, {1, 2, 7}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("graph not weighted")
	}
	nbr, wts := g.Neighbors(1), g.Weights(1)
	if len(nbr) != 2 || len(wts) != 2 {
		t.Fatalf("vertex 1 nbr=%v wts=%v", nbr, wts)
	}
	for i, w := range nbr {
		want := int32(5)
		if w == 2 {
			want = 7
		}
		if wts[i] != want {
			t.Errorf("weight of 1-%d = %d, want %d", w, wts[i], want)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFromWeightedEdgesDirectedDedup(t *testing.T) {
	g, err := FromWeightedEdges(2, []WeightedEdge{{0, 1, 3}, {0, 1, 9}}, Options{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumArcs() != 1 {
		t.Fatalf("arcs = %d, want 1 after dedup", g.NumArcs())
	}
	if g.Weights(0)[0] != 3 {
		t.Fatalf("dedup kept weight %d, want first weight 3", g.Weights(0)[0])
	}
}

func TestFromWeightedEdgesErrors(t *testing.T) {
	if _, err := FromWeightedEdges(1, []WeightedEdge{{0, 1, 1}}, Options{}); err == nil {
		t.Fatal("expected range error")
	}
}

func TestUnweightedWeightsNil(t *testing.T) {
	g := mustUndirected(t, 2, []Edge{{0, 1}})
	if g.Weights(0) != nil || g.Weighted() {
		t.Fatal("unweighted graph returned weights")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name string
		mut  func(g *Graph)
	}{
		{"unsorted", func(g *Graph) { g.adj[0], g.adj[1] = g.adj[1], g.adj[0] }},
		{"range", func(g *Graph) { g.adj[0] = 99 }},
		{"monotone", func(g *Graph) { g.rowPtr[1] = g.rowPtr[2] + 1 }},
		{"tail", func(g *Graph) { g.rowPtr[len(g.rowPtr)-1]-- }},
		{"origin", func(g *Graph) { g.rowPtr[0] = 1 }},
		{"weights", func(g *Graph) { g.weights = make([]int32, len(g.adj)-1) }},
	}
	for _, tc := range cases {
		g := mustUndirected(t, 4, testEdges())
		tc.mut(g)
		if err := g.Validate(); err == nil {
			t.Errorf("%s: corruption not detected", tc.name)
		}
	}
}

func TestValidateAsymmetry(t *testing.T) {
	g := mustUndirected(t, 4, testEdges())
	// Break symmetry: retarget one arc.
	g.adj[0] = 3
	if g.Validate() == nil {
		t.Fatal("asymmetric undirected graph passed validation")
	}
}

func TestFromCSR(t *testing.T) {
	g := mustUndirected(t, 4, testEdges())
	g2, err := FromCSR(g.RowPtr(), g.AdjArray(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("FromCSR changed edge count")
	}
	if _, err := FromCSR([]int64{1, 2}, []int32{0, 0}, nil, true); err == nil {
		t.Fatal("bad CSR accepted")
	}
}

func TestMaxDegree(t *testing.T) {
	g := mustUndirected(t, 4, testEdges())
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d, want 3", g.MaxDegree())
	}
	if Empty(3, false).MaxDegree() != 0 {
		t.Fatal("empty MaxDegree != 0")
	}
}

func TestMemoryFootprint(t *testing.T) {
	g := mustUndirected(t, 4, testEdges())
	// rowPtr: 5*8, adj: 8*4 arcs.
	if got := g.MemoryFootprint(); got != 5*8+8*4 {
		t.Fatalf("footprint = %d", got)
	}
	w, _ := FromWeightedEdges(2, []WeightedEdge{{U: 0, V: 1, W: 1}}, Options{})
	if got := w.MemoryFootprint(); got != 3*8+2*4+2*4 {
		t.Fatalf("weighted footprint = %d", got)
	}
}

func TestStringer(t *testing.T) {
	g := mustUndirected(t, 4, testEdges())
	if got := g.String(); got != "undirected graph: 4 vertices, 4 edges" {
		t.Fatalf("String() = %q", got)
	}
}

// Property: ingest of a random edge list always yields a graph passing
// Validate, with NumArcs <= 2*len(edges).
func TestPropertyRandomIngestValid(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(sz%50) + 2
		m := int(sz) * 3
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{int32(rng.Intn(n)), int32(rng.Intn(n))}
		}
		g, err := FromEdges(n, edges, Options{})
		if err != nil || g.Validate() != nil {
			return false
		}
		return g.NumArcs() <= 2*int64(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: undirected degree sum equals arc count.
func TestPropertyHandshake(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 40
		edges := make([]Edge, 200)
		for i := range edges {
			edges[i] = Edge{int32(rng.Intn(n)), int32(rng.Intn(n))}
		}
		g, err := FromEdges(n, edges, Options{})
		if err != nil {
			return false
		}
		var degSum int64
		for v := 0; v < n; v++ {
			degSum += int64(g.Degree(int32(v)))
		}
		return degSum == g.NumArcs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
