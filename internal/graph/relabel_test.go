package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// star plus a tail: 0 is the hub (degree 4), 4-5-6 a path off vertex 4.
func relabelTestGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(7, []Edge{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {4, 5}, {5, 6}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randomGraph(t *testing.T, n, m int, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{int32(rng.Intn(n)), int32(rng.Intn(n))}
	}
	g, err := FromEdges(n, edges, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDegreePermHubsFirst(t *testing.T) {
	g := relabelTestGraph(t)
	perm := DegreePerm(g)
	if err := checkPerm(perm, g.NumVertices()); err != nil {
		t.Fatal(err)
	}
	if perm[0] != 0 {
		t.Fatalf("hub got id %d, want 0", perm[0])
	}
	// Ranks must be sorted by descending degree, ties by original id.
	inv := InversePerm(perm)
	for rank := 1; rank < len(inv); rank++ {
		dPrev, dCur := g.Degree(inv[rank-1]), g.Degree(inv[rank])
		if dPrev < dCur {
			t.Fatalf("rank %d degree %d after degree %d", rank, dCur, dPrev)
		}
		if dPrev == dCur && inv[rank-1] > inv[rank] {
			t.Fatalf("tie at rank %d broken against original id order", rank)
		}
	}
}

func TestDegreePermCoversRandomGraphs(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		g := randomGraph(t, 100, 150, seed) // sparse: isolated vertices likely
		if err := checkPerm(DegreePerm(g), g.NumVertices()); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestInversePermRoundTrip(t *testing.T) {
	perm := []int32{2, 0, 3, 1}
	inv := InversePerm(perm)
	for v, p := range perm {
		if inv[p] != int32(v) {
			t.Fatalf("inv[perm[%d]] = %d", v, inv[p])
		}
	}
}

func TestRelabelPreservesStructure(t *testing.T) {
	g := relabelTestGraph(t)
	perm := DegreePerm(g)
	rg, inv, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := rg.Validate(); err != nil {
		t.Fatalf("relabeled graph invalid: %v", err)
	}
	if rg.NumVertices() != g.NumVertices() || rg.NumArcs() != g.NumArcs() {
		t.Fatalf("size changed: %v vs %v", rg, g)
	}
	// Neighborhoods must map through the permutation exactly.
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		want := append([]int32(nil), g.Neighbors(v)...)
		for i := range want {
			want[i] = perm[want[i]]
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got := rg.Neighbors(perm[v])
		if len(got) != len(want) {
			t.Fatalf("vertex %d: %v vs %v", v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("vertex %d: %v vs %v", v, got, want)
			}
		}
		if inv[perm[v]] != v {
			t.Fatalf("returned inverse wrong at %d", v)
		}
	}
}

func TestRelabelWeightedKeepsAlignment(t *testing.T) {
	// Distinct weights make misalignment visible.
	g, err := FromWeightedEdges(4, []WeightedEdge{{0, 1, 10}, {0, 2, 20}, {0, 3, 30}, {2, 3, 40}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	perm := []int32{3, 2, 1, 0} // full reversal
	rg, _, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := rg.Validate(); err != nil {
		t.Fatal(err)
	}
	weightOf := func(g *Graph, u, v int32) int32 {
		for i, w := range g.Neighbors(u) {
			if w == v {
				return g.Weights(u)[i]
			}
		}
		t.Fatalf("edge %d-%d missing", u, v)
		return 0
	}
	for _, e := range []WeightedEdge{{0, 1, 10}, {0, 2, 20}, {0, 3, 30}, {2, 3, 40}} {
		if got := weightOf(rg, perm[e.U], perm[e.V]); got != e.W {
			t.Fatalf("edge %d-%d weight %d, want %d", e.U, e.V, got, e.W)
		}
	}
}

func TestRelabelRejectsBadInput(t *testing.T) {
	g := relabelTestGraph(t)
	if _, _, err := g.Relabel([]int32{0, 1}); err == nil {
		t.Fatal("short permutation accepted")
	}
	if _, _, err := g.Relabel([]int32{0, 0, 1, 2, 3, 4, 5}); err == nil {
		t.Fatal("duplicate target accepted")
	}
	if _, _, err := g.Relabel([]int32{0, 1, 2, 3, 4, 5, 7}); err == nil {
		t.Fatal("out-of-range target accepted")
	}
}

func TestLayoutApplyPolicies(t *testing.T) {
	g := relabelTestGraph(t)

	lg, inv, err := Layout{Reorder: ReorderDegree}.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	if inv == nil {
		t.Fatal("reordering returned no inverse permutation")
	}
	if !slices.Equal(inv, InversePerm(DegreePerm(g))) || lg.NumArcs() != g.NumArcs() {
		t.Fatal("degree layout is not the DegreePerm relabeling")
	}

	// No reordering is a no-op: the same graph, ids unchanged.
	lg, inv, err = Layout{}.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	if lg != g || inv != nil {
		t.Fatal("ReorderNone must be a no-op")
	}
}
