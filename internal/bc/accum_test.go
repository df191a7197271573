package bc

import (
	"testing"

	"graphct/internal/gen"
	"graphct/internal/graph"
	"graphct/internal/testutil"
)

func requireScoresClose(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: score lengths differ: %d vs %d", name, len(a), len(b))
	}
	for v := range a {
		if !testutil.AlmostEqual(a[v], b[v]) {
			t.Fatalf("%s: v=%d striped %v atomic %v", name, v, a[v], b[v])
		}
	}
}

// TestAccumulationEquivalence pins the tentpole's correctness claim: the
// striped and atomic accumulation paths compute the same scores (within
// 1e-9 relative tolerance) on random and R-MAT graphs, exact and sampled,
// k = 0 and k > 0, coarse and fine-grained.
func TestAccumulationEquivalence(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		opt  Options
	}{
		{"erdos-renyi/exact", gen.ErdosRenyi(200, 600, 1), Options{}},
		{"erdos-renyi/sampled", gen.ErdosRenyi(300, 900, 2), Options{Samples: 40, Seed: 7}},
		{"rmat/exact", gen.RMAT(gen.PaperRMAT(7, 3)), Options{}},
		{"rmat/sampled", gen.RMAT(gen.PaperRMAT(8, 4)), Options{Samples: 64, Seed: 11}},
		{"rmat/k1", gen.RMAT(gen.PaperRMAT(6, 5)), Options{K: 1, Samples: 32, Seed: 3}},
		{"erdos-renyi/k2", gen.ErdosRenyi(80, 240, 6), Options{K: 2, Samples: 20, Seed: 5}},
		{"rmat/fine", gen.RMAT(gen.PaperRMAT(7, 8)), Options{Samples: 32, Seed: 9, FineGrained: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.opt
			st.Accumulation = AccumStriped
			at := tc.opt
			at.Accumulation = AccumAtomic
			requireScoresClose(t, tc.name, Centrality(tc.g, st).Scores, Centrality(tc.g, at).Scores)
		})
	}
}

// TestHybridSweepMatchesReference checks the direction-optimized forward
// sweep against the pure top-down reference on 50 seeded random graphs.
// The pull-style backward sweep fixes the summation order inside a source,
// but which worker's stripe a source lands in depends on scheduling, so
// across sources the sums agree to the repository tolerance, not to the bit.
func TestHybridSweepMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		// Dense enough that middle BFS levels trip the bottom-up
		// thresholds (frontier > n/beta vertices and > remaining/alpha
		// edges).
		g := gen.ErdosRenyi(400, 2400, seed)
		hyb := Centrality(g, Options{Sweep: SweepAuto}).Scores
		ref := Centrality(g, Options{Sweep: SweepTopDown}).Scores
		for v := range ref {
			if !testutil.AlmostEqual(hyb[v], ref[v]) {
				t.Fatalf("seed %d v=%d: hybrid %v != reference %v", seed, v, hyb[v], ref[v])
			}
		}
	}
}

// TestHybridSweepTakesBottomUpLevels guards against the hybrid path
// silently degrading to top-down (which would pass the equivalence test
// while losing the optimization): on a dense random graph at least one
// level of a single-source sweep must run bottom-up.
func TestHybridSweepTakesBottomUpLevels(t *testing.T) {
	g := gen.ErdosRenyi(400, 2400, 1)
	n := g.NumVertices()
	ws := newWorkspace(n, 0, 0, ScratchAuto)
	sink := scoreSink{local: make([]float64, n), scale: 1}
	brandesSource(g, 0, ws, sink, false, SweepAuto)
	// brandesSource resets the workspace, but the bottom-up level counter
	// survives reset.
	if ws.bottomUps == 0 {
		t.Fatal("no level ran bottom-up on a dense graph; thresholds broken?")
	}
}

// TestAccumulatorAutoSelection pins the memory-budget policy: striped
// while slots × n × 8 fits the budget, atomic beyond it, explicit modes
// always honored.
func TestAccumulatorAutoSelection(t *testing.T) {
	const n, slots = 1 << 10, 4
	fits := int64(slots * n * 8)
	if a := newAccumulator(n, slots, AccumAuto, fits, 1); !a.striped() {
		t.Fatal("auto under budget: want striped")
	}
	if a := newAccumulator(n, slots, AccumAuto, fits-1, 1); a.striped() {
		t.Fatal("auto over budget: want atomic")
	}
	if a := newAccumulator(n, slots, AccumStriped, 1, 1); !a.striped() {
		t.Fatal("explicit striped ignored budget? want striped")
	}
	if a := newAccumulator(n, slots, AccumAtomic, 1<<40, 1); a.striped() {
		t.Fatal("explicit atomic: want atomic")
	}
}

// TestStripeBudgetFallsBackToAtomic runs the full kernel with a budget too
// small for stripes and checks the result still matches the striped run.
func TestStripeBudgetFallsBackToAtomic(t *testing.T) {
	g := gen.ErdosRenyi(150, 450, 9)
	tight := Centrality(g, Options{StripeBudget: 8}).Scores
	roomy := Centrality(g, Options{Accumulation: AccumStriped}).Scores
	requireScoresClose(t, "budget-fallback", tight, roomy)
}
