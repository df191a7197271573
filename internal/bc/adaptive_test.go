package bc

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"graphct/internal/gen"
	"graphct/internal/graph"
	"graphct/internal/testutil"
)

// TestApproxLargeEpsilonStopsImmediately checks the degenerate tolerance:
// a huge ε makes the worst-case cap tiny, so the run ends after a single
// round with scores still inside the estimator's [0,1] normalized range.
func TestApproxLargeEpsilonStopsImmediately(t *testing.T) {
	g := gen.RMAT(gen.PaperRMAT(9, 1))
	n := g.NumVertices()
	res := ApproxCentrality(g, ApproxOptions{Epsilon: 0.9, Delta: 0.5, Seed: 1})
	if res.Guarantee.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1", res.Guarantee.Rounds)
	}
	if res.Guarantee.SamplesUsed <= 0 || res.Guarantee.SamplesUsed > adaptiveFirstRound {
		t.Fatalf("samples = %d, want in (0, %d]", res.Guarantee.SamplesUsed, adaptiveFirstRound)
	}
	denom := float64(n) * float64(n-1)
	for v, s := range res.Scores {
		if norm := s / denom; norm < 0 || norm > 1 || math.IsNaN(norm) {
			t.Fatalf("vertex %d: normalized score %v outside [0,1]", v, norm)
		}
	}
}

// TestApproxDegenerateGraphs feeds the estimator the shapes that break
// unguarded samplers: no vertices, one vertex, isolated vertices (every
// pair disconnected), a directed graph (projected), and a weighted graph
// (weights ignored; hop-count paths). None may panic, and scores must be
// exact where exactness is forced.
func TestApproxDegenerateGraphs(t *testing.T) {
	opt := ApproxOptions{Epsilon: 0.05, Seed: 1}

	empty, err := graph.FromEdges(0, nil, graph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	single, err := graph.FromEdges(1, nil, graph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*graph.Graph{"empty": empty, "single": single} {
		res := ApproxCentrality(g, opt)
		if len(res.Scores) != g.NumVertices() {
			t.Fatalf("%s: %d scores for %d vertices", name, len(res.Scores), g.NumVertices())
		}
		if !res.Guarantee.Stopped || res.Guarantee.SamplesUsed != 0 {
			t.Fatalf("%s: guarantee %+v, want stopped with zero samples", name, res.Guarantee)
		}
	}

	// Isolated vertices: every sampled pair is disconnected, every score
	// is exactly zero, and the rule still converges (zero variance).
	noEdges, err := graph.FromEdges(5, nil, graph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := ApproxCentrality(noEdges, opt)
	for v, s := range res.Scores {
		if s != 0 {
			t.Fatalf("isolated vertex %d scored %v, want 0", v, s)
		}
	}
	if res.Guarantee.SamplesUsed <= 0 {
		t.Fatalf("no-edge run used %d samples, want > 0", res.Guarantee.SamplesUsed)
	}

	// Directed input: projected to undirected like the exact kernel, so
	// the guarantee is against Exact of the projection.
	directed := gen.Follower(gen.DefaultFollower(60, 4))
	if !directed.Directed() {
		t.Fatal("follower generator no longer directed; test needs updating")
	}
	dres := ApproxCentrality(directed, ApproxOptions{Epsilon: 0.04, Seed: 2})
	exact := Exact(directed) // Centrality applies the same projection
	nd := directed.NumVertices()
	assertWithinEpsilon(t, "directed", dres.Scores, exact.Scores, nd, 0.04)

	// Weighted input: the adaptive estimator is hop-count only; weights
	// are ignored rather than panicking, matching unweighted Exact.
	weighted, err := graph.FromWeightedEdges(6, []graph.WeightedEdge{
		{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 9},
		{U: 3, V: 4, W: 1}, {U: 4, V: 5, W: 2}, {U: 0, V: 5, W: 7},
	}, graph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wres := ApproxCentrality(weighted, ApproxOptions{Epsilon: 0.04, Seed: 3})
	wexact := Exact(weighted)
	assertWithinEpsilon(t, "weighted", wres.Scores, wexact.Scores, 6, 0.04)
}

func assertWithinEpsilon(t *testing.T, name string, got, want []float64, n int, eps float64) {
	t.Helper()
	denom := float64(n) * float64(n-1)
	for v := range got {
		if diff := math.Abs(got[v]-want[v]) / denom; diff > eps {
			t.Fatalf("%s: vertex %d normalized error %v exceeds eps %v", name, v, diff, eps)
		}
	}
}

// TestApproxDeterministicAcrossConcurrency pins the seed-stream design:
// sample i draws from an RNG derived from (seed, i), so worker count and
// scheduling cannot change the result.
func TestApproxDeterministicAcrossConcurrency(t *testing.T) {
	g := gen.RMAT(gen.PaperRMAT(9, 2))
	base := ApproxOptions{Epsilon: 0.03, Seed: 11}
	opt1, opt4 := base, base
	opt1.Concurrency = 1
	opt4.Concurrency = 4
	r1 := ApproxCentrality(g, opt1)
	r4 := ApproxCentrality(g, opt4)
	if !reflect.DeepEqual(r1.Scores, r4.Scores) {
		t.Fatal("scores differ between Concurrency=1 and Concurrency=4")
	}
	if r1.Guarantee != r4.Guarantee {
		t.Fatalf("guarantees differ: %+v vs %+v", r1.Guarantee, r4.Guarantee)
	}
}

// TestApproxTopKStopsEarlier checks the relaxed ranked-query rule: on a
// hub-dominated graph, certifying "not top-k" for the long tail needs
// fewer samples than driving every tail radius under ε, and the certified
// top-1 on a star is its center.
func TestApproxTopKStopsEarlier(t *testing.T) {
	g := gen.RMAT(gen.PaperRMAT(10, 5))
	full := ApproxCentrality(g, ApproxOptions{Epsilon: 0.005, Seed: 6})
	ranked := ApproxCentrality(g, ApproxOptions{Epsilon: 0.005, Seed: 6, TopK: 10})
	if ranked.Guarantee.SamplesUsed > full.Guarantee.SamplesUsed {
		t.Fatalf("top-k run used %d samples, full run %d — relaxed rule fired later",
			ranked.Guarantee.SamplesUsed, full.Guarantee.SamplesUsed)
	}

	star := gen.Star(64)
	sres := ApproxCentrality(star, ApproxOptions{Epsilon: 0.05, Seed: 1, TopK: 1})
	if top := sres.TopK(1); len(top) != 1 || top[0] != 0 {
		t.Fatalf("star top-1 = %v, want [0] (the center)", sres.TopK(1))
	}
}

// TestApproxStopsWellBeforeCap pins the stopping rule on a scale-12
// R-MAT at ε 0.01, δ 0.1: the empirical-Bernstein check must fire while
// the run has drawn at most a quarter of the worst-case Hoeffding cap. A
// broken rule runs on to tMax, where the Hoeffding radius alone stops it.
// Sample i seeds from (seed, i), so the count is the same at any worker
// count.
func TestApproxStopsWellBeforeCap(t *testing.T) {
	g := gen.RMAT(gen.PaperRMAT(12, 1))
	const eps, delta = 0.01, 0.1
	tMax := newAdaptiveEstimator(g, ApproxOptions{Concurrency: 1}, eps, delta).tMax
	res := ApproxCentrality(g, ApproxOptions{Epsilon: eps, Delta: delta, Seed: 1})
	gu := res.Guarantee
	t.Logf("%d of %d samples, %d rounds", gu.SamplesUsed, tMax, gu.Rounds)
	if !gu.Stopped || gu.SamplesUsed > tMax/4 {
		t.Fatalf("guarantee %+v: want stopped within tMax/4 = %d samples", gu, tMax/4)
	}
}

// TestApproxOptionValidation pins the fail-fast path: out-of-range
// tolerances are caller bugs.
func TestApproxOptionValidation(t *testing.T) {
	g := gen.Path(5)
	for name, opt := range map[string]ApproxOptions{
		"eps>=1":   {Epsilon: 1},
		"eps<0":    {Epsilon: -0.1},
		"delta>=1": {Delta: 1.5},
		"delta<0":  {Delta: -1},
		"both":     {Epsilon: 2, Delta: 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			ApproxCentrality(g, opt)
		}()
	}
}

// TestApproxCentralityCtxCancellation mirrors TestCentralityCtxCancellation
// for the adaptive estimator: pre-cancelled contexts start no work, a
// mid-round cancel returns inside the budget, and the sampling workers
// wind down instead of leaking.
func TestApproxCentralityCtxCancellation(t *testing.T) {
	testutil.CheckGoroutines(t)
	g := gen.PreferentialAttachment(30000, 8, 1)
	// ε small enough that the uncancelled run takes seconds on this graph,
	// so a 10ms cancel always lands mid-round.
	opt := ApproxOptions{Epsilon: 0.0005, Seed: 1}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := ApproxCentralityCtx(ctx, g, opt)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("pre-cancelled: res %v err %v, want nil result and context.Canceled", res, err)
	}
	if d := time.Since(start); d > cancelBudget {
		t.Fatalf("pre-cancelled call took %v, budget %v", d, cancelBudget)
	}

	ctx, cancel = context.WithCancel(context.Background())
	timer := time.AfterFunc(10*time.Millisecond, cancel)
	defer timer.Stop()
	start = time.Now()
	res, err = ApproxCentralityCtx(ctx, g, opt)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("mid-run cancel: res %v err %v, want nil result and context.Canceled", res, err)
	}
	if elapsed > 10*time.Millisecond+cancelBudget {
		t.Fatalf("mid-run cancel returned after %v, budget %v", elapsed, cancelBudget)
	}
}

// TestApproxDefaultsApplied checks zero Epsilon/Delta resolve to the
// documented defaults in the returned guarantee.
func TestApproxDefaultsApplied(t *testing.T) {
	res := ApproxCentrality(gen.Ring(32), ApproxOptions{Seed: 1})
	if res.Guarantee.Epsilon != DefaultEpsilon || res.Guarantee.Delta != DefaultDelta {
		t.Fatalf("guarantee (%v,%v), want defaults (%v,%v)",
			res.Guarantee.Epsilon, res.Guarantee.Delta, DefaultEpsilon, DefaultDelta)
	}
}
