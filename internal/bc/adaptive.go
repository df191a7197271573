package bc

import (
	"context"
	"fmt"
	"math"

	"graphct/internal/graph"
	"graphct/internal/par"
	"graphct/internal/rank"
)

// This file implements adaptive approximate betweenness centrality with an
// a-priori (ε,δ) absolute-error guarantee — the KADABRA shape from the
// NetworKit toolkit line of work, in contrast to the fixed-k source
// sampling of Centrality, which makes no error statement.
//
// Estimator. One sample draws an ordered vertex pair (s,t) uniformly at
// random, samples one shortest s→t path uniformly among all shortest s→t
// paths, and scores X(v) = 1 for the path's interior vertices (everything
// but s and t). E[X(v)] = b(v), the betweenness of v normalized by the
// n(n-1) ordered pairs — exactly Exact(g).Scores[v] / (n(n-1)) — so the
// mean of t samples is an unbiased estimate with per-sample range [0,1].
// Disconnected pairs contribute zero to every vertex, which is correct:
// b(v) only counts pairs a path actually connects.
//
// Each sample runs a balanced bidirectional BFS: level-synchronous
// searches grow from s and from t, always expanding the side whose
// frontier has fewer out-edges, until some vertex is labeled by both
// sides with distF+distB ≤ (completed forward levels)+(completed backward
// levels) — at which point the minimum such sum is exactly d(s,t). Path
// counts σF/σB accumulate per side as in Brandes' forward sweep; the path
// is then drawn by choosing a meeting vertex at the split level c =
// max(0, D−lB) with probability σF·σB/σst and backtracking both ways
// through predecessors weighted by their σ. On scale-free graphs the
// balanced expansion touches a small fraction of the edges a full
// single-source sweep would, which is where the speedup over exact (and
// over per-source sampling) comes from.
//
// Stopping rule. Samples run in geometrically growing rounds. After round
// r with t cumulative samples, every vertex gets a confidence radius
//
//	rad(v) = min( sqrt(2·p̂(1-p̂)·L/t) + 3·L/t ,  sqrt(H/(2t)) )
//
// — the empirical-Bernstein bound (variance-adaptive, tight for the
// many near-zero-score vertices) and the Hoeffding bound (p̂-free
// worst case) — where L = ln(3/δ′), H = ln(2/δ′) and δ′ =
// δ/(adaptiveMaxRounds·n) union-bounds the failure budget over every
// (round, vertex) check the run can make. The run stops when rad(v) ≤ ε
// for all v (or, with TopK, for every vertex that could still
// belong to the top-k set). Because tMax = ⌈H/(2ε²)⌉ makes the Hoeffding
// radius ≤ ε, the cap forces termination after O(log tMax) rounds, so
// with probability ≥ 1−δ every score satisfies |Scores[v]/(n(n-1)) −
// b(v)| ≤ ε whatever round the rule fired in. The statistical acceptance
// test in stat_test.go checks this claim against exact BC instead of
// trusting the algebra.

const (
	// DefaultEpsilon is the absolute-error bound used when
	// ApproxOptions.Epsilon is zero: scores normalized to [0,1] are
	// within 0.01 of exact.
	DefaultEpsilon = 0.01
	// DefaultDelta is the failure probability used when
	// ApproxOptions.Delta is zero.
	DefaultDelta = 0.1
	// adaptiveFirstRound is the sample count of the first round; each
	// later round doubles the cumulative total (capped at tMax).
	adaptiveFirstRound = 256
	// adaptiveMaxRounds bounds how many stopping-rule checks a run can
	// make; the δ budget is split evenly across them. 64 doublings from
	// adaptiveFirstRound exceed any reachable tMax, so the cap never
	// binds — it only makes the union bound finite.
	adaptiveMaxRounds = 64
)

// Guarantee states the probabilistic error contract of an adaptive run:
// with probability at least 1−Delta, every vertex's normalized score
// (Scores[v] / (n·(n-1))) is within Epsilon of the exact value. Under
// TopK the per-vertex claim is restricted to vertices that could
// belong to the true top-k set; every other vertex is certified (to the
// same confidence) not to belong to it.
type Guarantee struct {
	Epsilon float64 `json:"epsilon"`
	Delta   float64 `json:"delta"`
	// SamplesUsed is the number of sampled pairs the run consumed.
	SamplesUsed int `json:"samples_used"`
	// Rounds is how many geometric rounds ran before the rule fired.
	Rounds int `json:"rounds"`
	// Stopped reports whether the adaptive rule ended the run before the
	// worst-case Hoeffding cap tMax; false means the run paid the full
	// a-priori budget (the guarantee holds either way).
	Stopped bool `json:"stopped"`
}

// ApproxResult is an approximate centrality result plus its guarantee.
// Scores are scaled by n·(n-1) so they estimate the same quantity the
// exact kernel reports and TopK works unchanged; Sources is nil
// (the estimator samples pairs, not sources).
type ApproxResult struct {
	Result
	Guarantee Guarantee
}

// ApproxOptions configures the adaptive estimator.
type ApproxOptions struct {
	// Epsilon is the absolute-error bound on scores normalized to [0,1]
	// (score / n(n-1)); 0 means DefaultEpsilon.
	Epsilon float64
	// Delta is the failure probability: with probability ≥ 1−Delta every
	// guarantee-covered vertex is within Epsilon. 0 means DefaultDelta.
	Delta float64
	// TopK relaxes the stopping rule to a ranked query: stop when every
	// vertex either has radius ≤ Epsilon or provably cannot belong to the
	// top-k set. 0 covers all vertices.
	TopK int
	// Seed drives pair sampling.
	Seed int64
	// Concurrency is the number of sampling workers; <= 0 means the
	// worker count. Scores do not depend on it.
	Concurrency int
}

// ApproxCentrality computes approximate betweenness centrality with the
// adaptive (ε,δ)-guaranteed estimator.
func ApproxCentrality(g *graph.Graph, opt ApproxOptions) *ApproxResult {
	r, err := ApproxCentralityCtx(context.Background(), g, opt)
	if err != nil {
		// Unreachable: the background context never cancels and the
		// estimator produces no other errors.
		panic("bc: adaptive estimator failed: " + err.Error())
	}
	return r
}

// ApproxCentralityCtx is ApproxCentrality with cooperative cancellation,
// checked between samples — a cancelled context returns ctx.Err() with no
// result, bounded by the in-flight samples like the other *Ctx kernels.
func ApproxCentralityCtx(ctx context.Context, g *graph.Graph, opt ApproxOptions) (*ApproxResult, error) {
	eps, delta := opt.Epsilon, opt.Delta
	if eps == 0 {
		eps = DefaultEpsilon
	}
	if delta == 0 {
		delta = DefaultDelta
	}
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("bc: epsilon and delta must lie in (0,1): eps=%v delta=%v", opt.Epsilon, opt.Delta))
	}
	if g.Directed() {
		// Same projection the exact kernel applies: the paper treats
		// mention graphs as undirected for centrality.
		g = g.Undirected()
	}
	n := g.NumVertices()
	if n < 3 {
		// No pair has an interior vertex; every score is exactly zero and
		// the guarantee holds with zero samples.
		return &ApproxResult{
			Result:    Result{Scores: make([]float64, n)},
			Guarantee: Guarantee{Epsilon: eps, Delta: delta, Stopped: true},
		}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	est := newAdaptiveEstimator(g, opt, eps, delta)
	return est.run(ctx)
}

// adaptiveEstimator owns one adaptive run's sampling state.
type adaptiveEstimator struct {
	g          *graph.Graph
	n          int
	eps, delta float64
	seed       int64
	topK       int
	lnB        float64 // ln(3/δ′), the empirical-Bernstein log term
	lnH        float64 // ln(2/δ′), the Hoeffding log term
	tMax       int     // worst-case sample cap: Hoeffding radius ≤ ε
	counts     []int64 // per-vertex interior-hit counts over all samples
	ws         []*pairWorkspace
	errs       []error
}

func newAdaptiveEstimator(g *graph.Graph, opt ApproxOptions, eps, delta float64) *adaptiveEstimator {
	n := g.NumVertices()
	// δ′ union-bounds the failure budget over every per-vertex check in
	// every possible round.
	checks := float64(adaptiveMaxRounds) * float64(n)
	est := &adaptiveEstimator{
		g:     g,
		n:     n,
		eps:   eps,
		delta: delta,
		seed:  opt.Seed,
		topK:  opt.TopK,
		lnB:   math.Log(3 * checks / delta),
		lnH:   math.Log(2 * checks / delta),
	}
	est.tMax = int(math.Ceil(est.lnH / (2 * eps * eps)))
	if est.tMax < 1 {
		est.tMax = 1
	}
	workers := opt.Concurrency
	if workers <= 0 {
		workers = par.Workers()
	}
	est.counts = make([]int64, n)
	est.ws = make([]*pairWorkspace, workers)
	for i := range est.ws {
		est.ws[i] = newPairWorkspace(n)
	}
	est.errs = make([]error, workers)
	return est
}

func (est *adaptiveEstimator) run(ctx context.Context) (*ApproxResult, error) {
	t := 0
	rounds := 0
	stopped := false
	for rounds < adaptiveMaxRounds {
		target := t * 2
		if t == 0 {
			target = adaptiveFirstRound
		}
		if target > est.tMax {
			target = est.tMax
		}
		if err := est.sampleRange(ctx, t, target); err != nil {
			return nil, err
		}
		t = target
		rounds++
		if est.converged(t) {
			stopped = t < est.tMax
			break
		}
		if t >= est.tMax {
			// Unreachable: at tMax the Hoeffding radius is ≤ ε, so
			// converged fired above; kept as a loop-termination backstop.
			break
		}
	}
	scores := make([]float64, est.n)
	scale := float64(est.n) * float64(est.n-1) / float64(t)
	for v, c := range est.counts {
		scores[v] = float64(c) * scale
	}
	return &ApproxResult{
		Result: Result{Scores: scores},
		Guarantee: Guarantee{
			Epsilon: est.eps, Delta: est.delta,
			SamplesUsed: t, Rounds: rounds, Stopped: stopped,
		},
	}, nil
}

// sampleRange runs samples [from, to) across the workers and folds the
// per-worker counts into est.counts. Sample i derives its own RNG stream
// from (seed, i), so results are bit-identical whatever the worker count
// or scheduling order.
func (est *adaptiveEstimator) sampleRange(ctx context.Context, from, to int) error {
	count := to - from
	par.ForWorkers(len(est.ws), func(w, nw int) {
		ws := est.ws[w]
		for i := from + count*w/nw; i < from+count*(w+1)/nw; i++ {
			// A single sample is one truncated bidirectional BFS —
			// microseconds to low milliseconds — so per-sample checks
			// keep post-cancel latency far inside the 500ms budget.
			if i&15 == 0 && ctx.Err() != nil {
				est.errs[w] = ctx.Err()
				return
			}
			est.samplePair(ws, int64(i))
		}
	})
	for w := range est.errs {
		if est.errs[w] != nil {
			return est.errs[w]
		}
	}
	for _, ws := range est.ws {
		for v, c := range ws.counts {
			if c != 0 {
				est.counts[v] += c
				ws.counts[v] = 0
			}
		}
	}
	return nil
}

// samplePair draws the i-th sample's vertex pair and scores one shortest
// path between them.
func (est *adaptiveEstimator) samplePair(ws *pairWorkspace, i int64) {
	rng := sm64{state: deriveState(est.seed, i)}
	n := int32(est.n)
	s := rng.intn(n)
	t := rng.intn(n - 1)
	if t >= s {
		t++
	}
	bidirSample(est.g, ws, s, t, &rng)
}

// converged evaluates the stopping rule at t cumulative samples.
func (est *adaptiveEstimator) converged(t int) bool {
	tf := float64(t)
	radH := math.Sqrt(est.lnH / (2 * tf))
	if radH <= est.eps {
		return true
	}
	if est.topK > 0 {
		return est.convergedTopK(tf, radH)
	}
	// radH > ε here, so min(radB, radH) ≤ ε reduces to radB ≤ ε.
	for _, c := range est.counts {
		p := float64(c) / tf
		radB := math.Sqrt(2*p*(1-p)*est.lnB/tf) + 3*est.lnB/tf
		if radB > est.eps {
			return false
		}
	}
	return true
}

// convergedTopK is the relaxed rule for ranked queries: stop when every
// vertex either has radius ≤ ε or provably cannot belong to the top-k set
// (its upper bound lies below the k-th largest lower bound, so at least k
// vertices beat it with the run's confidence).
func (est *adaptiveEstimator) convergedTopK(tf, radH float64) bool {
	k := min(est.topK, est.n)
	rad := func(c int64) float64 {
		p := float64(c) / tf
		radB := math.Sqrt(2*p*(1-p)*est.lnB/tf) + 3*est.lnB/tf
		if radB < radH {
			return radB
		}
		return radH
	}
	// k-th largest lower bound.
	lbs := make([]float64, est.n)
	for v, c := range est.counts {
		lbs[v] = float64(c)/tf - rad(c)
	}
	lbK := lbs[rank.Top(lbs, k)[k-1]]
	for _, c := range est.counts {
		r := rad(c)
		if r <= est.eps {
			continue
		}
		if float64(c)/tf+r < lbK {
			continue // certified outside the top-k set
		}
		return false
	}
	return true
}

// pairWorkspace holds one worker's per-sample state: a search from each
// end of the pair, each advanced by Brandes' top-down level step.
type pairWorkspace struct {
	f, b   search
	meets  []int32 // vertices labeled by both sides, in second-label order
	counts []int64 // worker-local interior-hit counts
	levels int64   // levels the sides expanded; survives reset (bench probe)
}

func newPairWorkspace(n int) *pairWorkspace {
	return &pairWorkspace{f: newSearch(n, 1), b: newSearch(n, 1), counts: make([]int64, n)}
}

// reset unlabels only the vertices the last sample labeled, however much
// of the graph the sides reached. Brandes' reset clears five arrays per
// vertex, or all 44·n bytes once a search passes n/2; the sampler ran at
// half speed on it on R-MAT 16 (DESIGN §13.1).
func (ws *pairWorkspace) reset() {
	for _, sd := range [2]*search{&ws.f, &ws.b} {
		for _, v := range sd.order {
			sd.dist[v] = -1
			sd.sigma[v] = 0
		}
		sd.order = sd.order[:0]
		sd.levelStart = sd.levelStart[:0]
	}
	ws.meets = ws.meets[:0]
}

// depth is the number of levels a side has expanded: sigma is final for
// dist ≤ depth.
func (sr *search) depth() int32 { return int32(len(sr.levelStart) - 1) }

// bidirSample samples one uniform shortest s→t path and increments
// ws.counts for its interior vertices; disconnected pairs contribute
// nothing. The graph must be undirected (adjacency symmetric), which the
// caller guarantees.
func bidirSample(g *graph.Graph, ws *pairWorkspace, s, t int32, rng *sm64) {
	defer ws.reset()
	ws.f.start(s)
	ws.b.start(t)
	const noMeet = int32(math.MaxInt32)
	minSum := noMeet
	for {
		x, y := &ws.f, &ws.b
		frontier, other := x.frontier(), y.frontier()
		if len(frontier) == 0 || len(other) == 0 {
			return // a side exhausted its component without meeting: no path
		}
		// Balanced expansion: grow the cheaper frontier, top-down only.
		if rowArcs(g, frontier) > rowArcs(g, other) {
			x, y, frontier = y, x, other
		}
		end := len(x.order)
		x.topDownLevel(g, frontier)
		x.levelStart = append(x.levelStart, end)
		ws.levels++
		next := x.depth()
		// The meets are the new level's vertices the other side labeled,
		// in discovery order.
		for _, v := range x.order[end:] {
			if dy := y.dist[v]; dy >= 0 {
				ws.meets = append(ws.meets, v)
				minSum = min(minSum, next+dy)
			}
		}
		// Once the completed levels cover a meeting sum, that sum is
		// exactly d(s,t): any shorter path would have produced a meet
		// with a smaller (true-distance) sum already.
		if minSum <= ws.f.depth()+ws.b.depth() {
			break
		}
	}
	d := minSum
	// Split level: count paths through vertices at forward distance c and
	// backward distance d-c. c ≤ f.depth() and d-c ≤ b.depth() hold by the
	// stopping condition, so both sides' σ are final at the split.
	c := max(d-ws.b.depth(), 0)
	var sigTot float64
	for _, v := range ws.meets {
		if ws.f.dist[v] == c && ws.b.dist[v] == d-c {
			sigTot += ws.f.sigma[v] * ws.b.sigma[v]
		}
	}
	// Draw the meeting vertex with probability σF·σB/σst.
	x := rng.float64() * sigTot
	m := int32(-1)
	for _, v := range ws.meets {
		if ws.f.dist[v] == c && ws.b.dist[v] == d-c {
			m = v
			x -= ws.f.sigma[v] * ws.b.sigma[v]
			if x < 0 {
				break
			}
		}
	}
	if c > 0 && d-c > 0 {
		ws.counts[m]++ // m is interior (neither s nor t)
	}
	ws.backtrack(g, &ws.f, m, c, rng)
	ws.backtrack(g, &ws.b, m, d-c, rng)
}

// backtrack walks from the meeting vertex to the side's root, drawing each
// predecessor with probability σ(pred)/σ(cur) and scoring the interior
// vertices it lands on (levels level-1 … 1; the root itself is an
// endpoint, never interior).
func (ws *pairWorkspace) backtrack(g *graph.Graph, sd *search, m, level int32, rng *sm64) {
	cur := m
	for j := level; j > 1; j-- {
		x := rng.float64() * sd.sigma[cur]
		pick := int32(-1)
		for _, u := range g.Neighbors(cur) {
			if sd.dist[u] == j-1 {
				pick = u
				x -= sd.sigma[u]
				if x < 0 {
					break
				}
			}
		}
		ws.counts[pick]++
		cur = pick
	}
}
