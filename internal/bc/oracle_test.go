package bc

import (
	"fmt"
	"testing"

	"graphct/internal/gen"
	"graphct/internal/graph"
	"graphct/internal/testutil"
)

// topDownCentrality is the sweep this package shipped before the forward
// sweep became direction-optimizing: every level pushed from the frontier,
// sources one after another into one score array. It is kept as the
// reference the hybrid sweep is compared against.
func topDownCentrality(g *graph.Graph) []float64 {
	n := g.NumVertices()
	ws := newWorkspace(g, 0)
	sink := scoreSink{local: make([]float64, n), scale: 1}
	for s := int32(0); int(s) < n; s++ {
		ws.dist[s] = 0
		ws.sigma[s] = 1
		ws.order = append(ws.order, s)
		ws.levelStart = append(ws.levelStart, 0)
		for lo := 0; lo < len(ws.order); {
			hi := len(ws.order)
			ws.topDownLevel(g, ws.order[lo:hi])
			if len(ws.order) > hi {
				ws.levelStart = append(ws.levelStart, hi)
			}
			lo = hi
		}
		backwardSweep(g, s, ws, sink)
		ws.reset()
	}
	return sink.local
}

// unfoldedFor is the k = 0 path before pendant folding: every source swept
// on g itself, one after another into one score array, in the order given.
// It is the reference the folded run is compared against; with one source
// in flight the unfolded driver matches it to the bit.
func unfoldedFor(g *graph.Graph, sources []int32, scale float64) []float64 {
	ws := newWorkspace(g, 0)
	sink := scoreSink{local: make([]float64, g.NumVertices()), scale: scale}
	for _, s := range sources {
		brandesSource(g, s, ws, sink)
	}
	return sink.local
}

// unfoldedCentrality is unfoldedFor over the sources opt draws.
func unfoldedCentrality(g *graph.Graph, opt Options) *Result {
	sources, _, scale := drawSources(g, opt)
	return &Result{Scores: unfoldedFor(g, sources, scale), Sources: sources}
}

func requireScoresClose(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("score lengths differ: %d vs %d", len(got), len(want))
	}
	for v := range want {
		if !testutil.AlmostEqual(got[v], want[v]) {
			t.Fatalf("v=%d: got %v, want %v", v, got[v], want[v])
		}
	}
}

func mustEdges(t testing.TB, n int, edges []graph.Edge, opt graph.Options) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges, opt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// adversarialShapes are the structures internal/bfs compares its engine
// with its oracle on, at sizes where every source can be swept: each one
// stresses one direction of the sweep or an edge case of the level
// bookkeeping.
func adversarialShapes(t testing.TB) map[string]*graph.Graph {
	tiny := make([]*graph.Graph, 0, 400)
	for i := 0; i < 200; i++ {
		tiny = append(tiny, gen.Path(3), gen.Ring(4))
	}
	noisy := gen.RMATEdges(gen.PaperRMAT(8, 2))
	for v := int32(0); v < 64; v++ {
		noisy = append(noisy, graph.Edge{U: v, V: v}, graph.Edge{U: v, V: v + 1}, graph.Edge{U: v, V: v + 1})
	}
	return map[string]*graph.Graph{
		"star":                  gen.Star(400),
		"path":                  gen.Path(250),
		"clique":                gen.Complete(64),
		"tiny-components":       gen.Disjoint(tiny...),
		"isolated-source":       mustEdges(t, 6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, graph.Options{}),
		"loops-and-multi-edges": mustEdges(t, 256, noisy, graph.Options{KeepSelfLoops: true, KeepDuplicates: true}),
	}
}

// TestHybridSweepMatchesOracle compares the kernel with the top-down
// oracle and with brute force on the adversarial shapes, at one, two and
// four sources in flight. The pull-style backward sweep
// fixes the summation order inside a source, but which stripe a source
// lands in depends on scheduling, so sums over sources agree to the
// repository tolerance, not to the bit. k = 1 has no second
// implementation at these sizes; there the serial run is the reference,
// which still checks the parallel driver. Cases keep the compact=false
// level from when a delta-varint compact graph ran beside the raw one, so
// their names stay stable.
func TestHybridSweepMatchesOracle(t *testing.T) {
	for name, g := range adversarialShapes(t) {
		t.Run(name, func(t *testing.T) {
			want := [2][]float64{
				topDownCentrality(g),
				Centrality(g, Options{K: 1, Concurrency: 1}).Scores,
			}
			requireScoresClose(t, want[0], bruteForce(g))
			for k, ref := range want {
				for _, c := range []int{1, 2, 4} {
					t.Run(fmt.Sprintf("compact=false/k=%d/c=%d", k, c), func(t *testing.T) {
						requireScoresClose(t, Centrality(g, Options{K: k, Concurrency: c}).Scores, ref)
					})
				}
			}
		})
	}
}

// TestHybridSweepMatchesOracleRandom is the same comparison on 50 seeded
// random graphs dense enough that middle BFS levels trip the bottom-up
// thresholds (frontier > n/beta vertices and > remaining/alpha edges).
func TestHybridSweepMatchesOracleRandom(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		g := gen.ErdosRenyi(400, 2400, seed)
		requireScoresClose(t, Exact(g).Scores, topDownCentrality(g))
	}
}

// TestHybridSweepTakesBottomUpLevels guards against the hybrid path
// silently degrading to top-down (which would pass the equivalence test
// while losing the optimization): on a dense random graph at least one
// level of a single-source sweep must run bottom-up.
func TestHybridSweepTakesBottomUpLevels(t *testing.T) {
	g := gen.ErdosRenyi(400, 2400, 1)
	ws := newWorkspace(g, 0)
	sink := scoreSink{local: make([]float64, g.NumVertices()), scale: 1}
	brandesSource(g, 0, ws, sink)
	// brandesSource resets the workspace, but the bottom-up level counter
	// survives reset.
	if ws.bottomUps == 0 {
		t.Fatal("no level ran bottom-up on a dense graph; thresholds broken?")
	}
}
