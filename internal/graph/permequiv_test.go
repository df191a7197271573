package graph_test

// Permutation-equivalence property tests: every kernel must compute the
// same function on a relabeled graph, up to renaming its inputs and
// outputs through the permutation. This is the correctness contract of
// the cache-locality reordering — layout changes kernel speed, never
// kernel answers. Integer results must match exactly; floating-point
// results to 1e-9 relative (adjacency rows re-sort under new names, so
// float summation order legitimately shifts).

import (
	"math/rand"
	"testing"

	"graphct/internal/bc"
	"graphct/internal/bfs"
	"graphct/internal/cc"
	"graphct/internal/gen"
	"graphct/internal/graph"
	"graphct/internal/kcore"
	"graphct/internal/sssp"
	"graphct/internal/stats"
	"graphct/internal/testutil"
)

// equivGraph alternates the paper's R-MAT shape with uniform random
// graphs so the property is not an artifact of one degree distribution.
func equivGraph(seed int64) *graph.Graph {
	if seed%2 == 0 {
		return gen.RMAT(gen.PaperRMAT(8, seed)) // 256 vertices, skewed
	}
	return gen.ErdosRenyi(300, 900, seed)
}

func applyReorder(t *testing.T, g *graph.Graph, kind graph.ReorderKind) (*graph.Graph, []int32) {
	t.Helper()
	rg, inv, err := graph.Layout{Reorder: kind}.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	if inv == nil {
		t.Fatal("no inverse permutation returned")
	}
	return rg, graph.InversePerm(inv) // perm[old] = new
}

// relabeling is one renamed copy of a graph: perm[old] = new.
type relabeling struct {
	name string
	g    *graph.Graph
	perm []int32
}

// relabelings returns the two non-identity relabelings the suites check:
// the shipped degree layout and a seeded uniformly random permutation, an
// adversary with no structure for a kernel to lean on.
func relabelings(t *testing.T, g *graph.Graph, seed int64) []relabeling {
	t.Helper()
	dg, dperm := applyReorder(t, g, graph.ReorderDegree)
	perm := make([]int32, g.NumVertices())
	for i, p := range rand.New(rand.NewSource(seed)).Perm(len(perm)) {
		perm[i] = int32(p)
	}
	rg, _, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	return []relabeling{{"degree", dg, dperm}, {"random", rg, perm}}
}

func TestPermutationEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		g := equivGraph(seed)
		n := g.NumVertices()

		// References on the original labels, computed once per seed.
		refBC := bc.Centrality(g, bc.Options{}).Scores
		refBFS := bfs.Search(g, 0)
		refCC := cc.Components(g)
		refCore := kcore.Decompose(g)
		refSSSP, err := sssp.Dijkstra(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		refDeg := stats.Degrees(g)
		refGini := stats.GiniCoefficient(g)

		for _, r := range relabelings(t, g, seed) {
			kind, rg, perm := r.name, r.g, r.perm

			// Betweenness: exact run, scores permute (1e-9 rel float).
			got := bc.Centrality(rg, bc.Options{}).Scores
			for old := 0; old < n; old++ {
				if !testutil.AlmostEqual(refBC[old], got[perm[old]]) {
					t.Fatalf("seed %d %v: bc[%d] = %g, relabeled %g", seed, kind, old, refBC[old], got[perm[old]])
				}
			}

			// BFS levels from a translated source: exact.
			rbfs := bfs.Search(rg, perm[0])
			if rbfs.Depth != refBFS.Depth || rbfs.NumReached() != refBFS.NumReached() {
				t.Fatalf("seed %d %v: bfs shape %d/%d vs %d/%d", seed, kind,
					rbfs.Depth, rbfs.NumReached(), refBFS.Depth, refBFS.NumReached())
			}
			for old := 0; old < n; old++ {
				if refBFS.Level[old] != rbfs.Level[perm[old]] {
					t.Fatalf("seed %d %v: level[%d] = %d vs %d", seed, kind, old,
						refBFS.Level[old], rbfs.Level[perm[old]])
				}
			}

			// Connected components: same partition (labels are ids, so
			// compare the induced equivalence via a color bijection).
			rcc := cc.Components(rg)
			if rcc.Count != refCC.Count {
				t.Fatalf("seed %d %v: %d components vs %d", seed, kind, rcc.Count, refCC.Count)
			}
			fwd := make(map[int32]int32)
			bwd := make(map[int32]int32)
			for old := 0; old < n; old++ {
				a, b := refCC.Colors[old], rcc.Colors[perm[old]]
				if want, ok := fwd[a]; ok && want != b {
					t.Fatalf("seed %d %v: component of %d split", seed, kind, old)
				}
				if want, ok := bwd[b]; ok && want != a {
					t.Fatalf("seed %d %v: components merged at %d", seed, kind, old)
				}
				fwd[a], bwd[b] = b, a
			}

			// k-core numbers: exact int per vertex.
			rcore := kcore.Decompose(rg)
			for old := 0; old < n; old++ {
				if refCore[old] != rcore[perm[old]] {
					t.Fatalf("seed %d %v: core[%d] = %d vs %d", seed, kind, old,
						refCore[old], rcore[perm[old]])
				}
			}

			// Unweighted shortest paths (unit weights): exact int64.
			rsssp, err := sssp.Dijkstra(rg, perm[0])
			if err != nil {
				t.Fatal(err)
			}
			for old := 0; old < n; old++ {
				if refSSSP.Dist[old] != rsssp.Dist[perm[old]] {
					t.Fatalf("seed %d %v: dist[%d] = %d vs %d", seed, kind, old,
						refSSSP.Dist[old], rsssp.Dist[perm[old]])
				}
			}

			// Degree statistics: the multiset of degrees is invariant.
			rdeg := stats.Degrees(rg)
			if rdeg.N != refDeg.N || rdeg.Min != refDeg.Min || rdeg.Max != refDeg.Max ||
				!testutil.AlmostEqual(rdeg.Mean, refDeg.Mean) || !testutil.AlmostEqual(rdeg.Variance, refDeg.Variance) {
				t.Fatalf("seed %d %v: degree stats %+v vs %+v", seed, kind, rdeg, refDeg)
			}
			if rgini := stats.GiniCoefficient(rg); !testutil.AlmostEqual(rgini, refGini) {
				t.Fatalf("seed %d %v: gini %g vs %g", seed, kind, rgini, refGini)
			}
		}
	}
}

// TestPermutationEquivalenceKBC covers the k-betweenness generalization
// on a subset of seeds (it is the slowest kernel: every vertex is a
// source and each source sweeps k extra path lengths).
func TestPermutationEquivalenceKBC(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		g := equivGraph(seed)
		n := g.NumVertices()
		for _, k := range []int{1, 2} {
			ref := bc.Centrality(g, bc.Options{K: k}).Scores
			rg, perm := applyReorder(t, g, graph.ReorderDegree)
			got := bc.Centrality(rg, bc.Options{K: k}).Scores
			for old := 0; old < n; old++ {
				if !testutil.AlmostEqual(ref[old], got[perm[old]]) {
					t.Fatalf("seed %d k=%d: kbc[%d] = %g, relabeled %g", seed, k, old, ref[old], got[perm[old]])
				}
			}
		}
	}
}

// TestPermutationEquivalenceWeighted pins the weight co-sort in Relabel:
// weighted shortest paths must be invariant under relabeling.
func TestPermutationEquivalenceWeighted(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 120
		edges := make([]graph.WeightedEdge, 360)
		for i := range edges {
			edges[i] = graph.WeightedEdge{
				U: int32(rng.Intn(n)), V: int32(rng.Intn(n)), W: int32(1 + rng.Intn(100)),
			}
		}
		g, err := graph.FromWeightedEdges(n, edges, graph.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sssp.Dijkstra(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range relabelings(t, g, seed) {
			kind, rg, perm := r.name, r.g, r.perm
			got, err := sssp.Dijkstra(rg, perm[3])
			if err != nil {
				t.Fatal(err)
			}
			for old := 0; old < n; old++ {
				if ref.Dist[old] != got.Dist[perm[old]] {
					t.Fatalf("seed %d %v: dist[%d] = %d vs %d", seed, kind, old,
						ref.Dist[old], got.Dist[perm[old]])
				}
			}
		}
	}
}
