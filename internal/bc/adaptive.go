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
// Stopping rule. Samples run in rounds that grow the cumulative count
// t by a quarter (256, 320, 400, 500, 625, …; t + ⌈t/4⌉), capped at tMax.
// After each round, every vertex's count c gives p̂ = c/t and the
// Chernoff–KL interval of Hoeffding (1963, Thm 1), valid for the mean of
// any [0,1] samples: the q with t·KL(p̂‖q) ≤ L, where KL is the Bernoulli
// divergence and L = ln(2/δ′). Each one-sided miss has probability at
// most e^−L = δ′/2. A vertex passes when the interval lies within ε of
// p̂ on both sides:
//
//	(p̂+ε ≥ 1 or t·KL(p̂‖p̂+ε) ≥ L) and (p̂−ε ≤ 0 or t·KL(p̂‖p̂−ε) ≥ L)
//
// which needs no root-finding. The run stops when every vertex passes
// (or, with TopK, every vertex that could still belong to the top-k set).
// δ′ = δ/(R·n) union-bounds the failure budget over the R·n (round,
// vertex) checks the schedule can make up to tMax = ⌈L/2ε²⌉, where
// Pinsker's KL ≥ 2ε² makes every vertex pass, so the cap bounds the run.
// R and tMax depend on each other through L; adaptiveCap takes the least
// R that covers its own cap's rounds. So with probability ≥ 1−δ every
// score satisfies |Scores[v]/(n(n-1)) − b(v)| ≤ ε whatever round the rule
// fired in. The statistical acceptance test in stat_test.go checks this
// claim against exact BC instead of trusting the algebra.

const (
	// DefaultEpsilon is the absolute-error bound used when
	// ApproxOptions.Epsilon is zero: scores normalized to [0,1] are
	// within 0.01 of exact.
	DefaultEpsilon = 0.01
	// DefaultDelta is the failure probability used when
	// ApproxOptions.Delta is zero.
	DefaultDelta = 0.1
	// adaptiveFirstRound is the sample count of the first round; each
	// later round grows the cumulative total by a quarter (capped at
	// tMax).
	adaptiveFirstRound = 256
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
	// vertex either has its interval within Epsilon or provably cannot
	// belong to the top-k set. 0 covers all vertices.
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
	return est.run(func(from, to int) error { return est.sampleRange(ctx, from, to) })
}

// adaptiveEstimator owns one adaptive run's sampling state.
type adaptiveEstimator struct {
	g          *graph.Graph
	n          int
	eps, delta float64
	seed       int64
	topK       int
	lnL        float64 // ln(2/δ′), the Chernoff–KL log term
	tMax       int     // worst-case sample cap: every vertex passes at tMax
	counts     []int64 // per-vertex interior-hit counts over all samples
	ws         []*pairWorkspace
	errs       []error
}

func newAdaptiveEstimator(g *graph.Graph, opt ApproxOptions, eps, delta float64) *adaptiveEstimator {
	n := g.NumVertices()
	est := &adaptiveEstimator{
		g:     g,
		n:     n,
		eps:   eps,
		delta: delta,
		seed:  opt.Seed,
		topK:  opt.TopK,
	}
	est.tMax, est.lnL = adaptiveCap(n, eps, delta)
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

// nextTarget is the cumulative sample count of the round after one that
// ended at t: adaptiveFirstRound, then a quarter more each round, capped
// at tMax.
func nextTarget(t, tMax int) int {
	if t == 0 {
		return min(adaptiveFirstRound, tMax)
	}
	return min(t+(t+3)/4, tMax)
}

// adaptiveCap returns the worst-case sample cap tMax = ⌈L/2ε²⌉ and L =
// ln(2/δ′) with δ′ = δ/(R·n), where R counts the rounds nextTarget makes
// up to tMax: each of the R·n (round, vertex) checks misses on either
// side with probability at most e^−L = δ′/2, so all of them together
// spend δ. R and tMax depend on each other through L, and any R at least
// the real count is valid; R climbs from 1 to the least that covers its
// own cap's rounds (each step raises L, so tMax, so the count).
func adaptiveCap(n int, eps, delta float64) (tMax int, lnL float64) {
	for r := 1; ; {
		lnL = math.Log(2 * float64(r) * float64(n) / delta)
		tMax = int(math.Ceil(lnL / (2 * eps * eps)))
		rounds := 0
		for t := 0; t < tMax; t = nextTarget(t, tMax) {
			rounds++
		}
		if rounds <= r {
			return tMax, lnL
		}
		r = rounds
	}
}

// run draws rounds through sample, which must add samples [from, to) to
// est.counts, until the stopping rule fires or the cap is reached.
func (est *adaptiveEstimator) run(sample func(from, to int) error) (*ApproxResult, error) {
	t, rounds := 0, 0
	for t < est.tMax {
		target := nextTarget(t, est.tMax)
		if err := sample(t, target); err != nil {
			return nil, err
		}
		t = target
		rounds++
		if est.converged(t) {
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
			SamplesUsed: t, Rounds: rounds, Stopped: t < est.tMax,
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

// klDev is KL(p‖p+d), the divergence of Bernoulli(p+d) from
// Bernoulli(p), for p in [0,1] and p+d in [0,1] (+Inf at p+d = 0 or 1
// unless p is there too). The log1p form keeps it accurate when d is
// small beside p and 1−p, where the two terms nearly cancel.
func klDev(p, d float64) float64 {
	var kl float64
	if p > 0 {
		kl -= p * math.Log1p(d/p)
	}
	if p < 1 {
		kl -= (1 - p) * math.Log1p(-d/(1-p))
	}
	return kl
}

// klPasses reports whether the Chernoff–KL interval of count c in t
// samples lies within ε of p̂ = c/t on both sides: t·KL(p̂‖q) ≥ L at
// q = p̂±ε, unless q leaves [0,1].
func klPasses(c int64, t int, eps, lnL float64) bool {
	tf := float64(t)
	p := float64(c) / tf
	return (p+eps >= 1 || tf*klDev(p, eps) >= lnL) &&
		(p-eps <= 0 || tf*klDev(p, -eps) >= lnL)
}

// klBounds returns the Chernoff–KL interval of count c in t samples, the
// q with t·KL(p̂‖q) ≤ L, each end found by bisection and reported at its
// outer bracket so the interval never shrinks past the exact one.
func klBounds(c int64, t int, lnL float64) (lo, hi float64) {
	tf := float64(t)
	p := float64(c) / tf
	end := func(out float64) float64 {
		in := p // inside; out is outside, or p itself at an end of [0,1]
		for {
			mid := (in + out) / 2
			if mid == in || mid == out {
				return out
			}
			if tf*klDev(p, mid-p) <= lnL {
				in = mid
			} else {
				out = mid
			}
		}
	}
	return end(0), end(1)
}

// converged evaluates the stopping rule at t cumulative samples. Counts
// repeat heavily (most vertices of a skewed graph share a few small
// ones), so each distinct count is checked once.
func (est *adaptiveEstimator) converged(t int) bool {
	if est.topK > 0 {
		return est.convergedTopK(t)
	}
	passed := make([]bool, t+1) // by count; a count never exceeds t
	for _, c := range est.counts {
		if !passed[c] {
			if !klPasses(c, t, est.eps, est.lnL) {
				return false
			}
			passed[c] = true
		}
	}
	return true
}

// convergedTopK is the relaxed rule for ranked queries: stop when every
// vertex either passes or provably cannot belong to the top-k set (its
// interval's upper end lies below the k-th largest lower end, so at least
// k vertices beat it with the run's confidence).
func (est *adaptiveEstimator) convergedTopK(t int) bool {
	type interval struct {
		lo, hi float64
		pass   bool
	}
	memo := make(map[int64]interval)
	at := func(c int64) interval {
		iv, ok := memo[c]
		if !ok {
			iv.lo, iv.hi = klBounds(c, t, est.lnL)
			iv.pass = klPasses(c, t, est.eps, est.lnL)
			memo[c] = iv
		}
		return iv
	}
	k := min(est.topK, est.n)
	lbs := make([]float64, est.n)
	for v, c := range est.counts {
		lbs[v] = at(c).lo
	}
	lbK := lbs[rank.Top(lbs, k)[k-1]]
	for _, c := range est.counts {
		if iv := at(c); !iv.pass && iv.hi >= lbK {
			return false
		}
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
