package bc

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"graphct/internal/cc"
	"graphct/internal/gen"
	"graphct/internal/graph"
	"graphct/internal/testutil"
	"graphct/internal/tweets"
)

// topDownCentrality is the sweep this package shipped before either sweep
// became direction-optimizing: every forward level pushed from the
// frontier, every backward level pulled, sources one after another into
// one score array. It is kept as the reference the hybrid sweeps are
// compared against.
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
		pullBackwardSweep(g, s, ws, sink)
		ws.reset()
	}
	return sink.local
}

// pullBackwardSweep evaluates the Brandes dependency recurrence pull-style,
// deepest level first: delta[v] = sigma[v] · Σ (1+delta[w])/sigma[w] over
// v's successors w in sorted adjacency order. Pulling makes each vertex
// the only writer of its own delta entry and fixes the floating-point
// summation order independently of visitation order.
//
// The successor term (1+delta[w])/sigma[w] is materialized into coef[w]
// once per vertex, and the level structure makes the successor test
// itself free: a neighbor of a level-li vertex can only live on levels
// li-1, li or li+1, so if coef is populated for strictly deeper levels
// only — each level's coefficients are published in a second pass, after
// every delta of that level is computed — then coef[w] is nonzero exactly
// for successors and zero otherwise (unset levels and unreached vertices
// read as the cleared 0). The inner loop is one load and one add per
// edge: no dist read, no branch, no divide. ws.sigTot is dead in the
// k=0 path and hosts coef without a new allocation.
//
// On a folded graph each of v's pendants is one more successor, with
// sigma[v] paths and no dependency of its own, so it adds exactly 1 to
// delta[v]: pend[v] in all. The sweep returns the vertices s reaches in
// the unfolded graph, pendants included.
//
// It is the backward sweep this package shipped before that sweep became
// direction-optimizing, kept verbatim as the oracle backwardSweep must
// match to the bit.
func pullBackwardSweep(g *graph.Graph, s int32, ws *workspace, sink scoreSink) (reached float64) {
	sigma, delta, pend := ws.sigma, ws.delta, ws.pend
	coef := ws.sigTot
	reached = float64(len(ws.order))
	for li := len(ws.levelStart) - 1; li >= 0; li-- {
		lo := ws.levelStart[li]
		hi := len(ws.order)
		if li+1 < len(ws.levelStart) {
			hi = ws.levelStart[li+1]
		}
		lvl := ws.order[lo:hi]
		for _, v := range lvl {
			var dsum float64
			for _, w := range g.Neighbors(v) {
				dsum += coef[w]
			}
			dsum *= sigma[v]
			if pend != nil {
				dsum += pend[v]
				reached += pend[v]
			}
			delta[v] = dsum
			if v != s {
				sink.add(v, dsum)
			}
		}
		// Publish this level's coefficients only now: during the pass
		// above, same-level neighbors must still read coef == 0.
		for _, v := range lvl {
			coef[v] = (1 + delta[v]) / sigma[v]
		}
	}
	return reached
}

// kbcOracleSource is the k-betweenness kernel this package shipped before
// it ran on Brandes' forward sweep, kept as the oracle kbcSource must match
// to the bit: a private top-down BFS, then forward and backward sweeps
// that re-walk every level once per walk length, on its own arrays with
// the k+1 slack entries of a vertex interleaved. Its per-level fan-out is
// a plain loop: one source runs serially.
func kbcOracleSource(g *graph.Graph, s int32, k int, sink scoreSink) {
	n := g.NumVertices()
	stride := k + 1
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	sigma := make([]float64, n*stride)
	dep := make([]float64, n*stride)
	sigTot := make([]float64, n)

	// Phase 1: BFS from s recording visitation order and level offsets.
	dist[s] = 0
	order := []int32{s}
	levelStart := []int{0}
	frontier := order[0:1]
	for len(frontier) > 0 {
		frontierEnd := len(order)
		for _, u := range frontier {
			du := dist[u]
			for _, v := range g.Neighbors(u) {
				if dist[v] == -1 {
					dist[v] = du + 1
					order = append(order, v)
				}
			}
		}
		if len(order) == frontierEnd {
			break
		}
		levelStart = append(levelStart, frontierEnd)
		frontier = order[frontierEnd:]
	}
	maxDist := len(levelStart) - 1
	maxLen := maxDist + k

	levelSlice := func(d int) []int32 {
		if d < 0 || d > maxDist {
			return nil
		}
		lo := levelStart[d]
		hi := len(order)
		if d+1 <= maxDist {
			hi = levelStart[d+1]
		}
		return order[lo:hi]
	}

	// Phase 2: forward sweep in increasing walk length L. A walk of
	// length L arrives at v with slack j = L − dist[v]; its last step
	// leaves a neighbor u holding slack L−1−dist[u].
	sigma[int(s)*stride] = 1
	for L := 1; L <= maxLen; L++ {
		for d := max(L-k, 0); d <= min(L, maxDist); d++ {
			for _, v := range levelSlice(d) {
				if v == s {
					continue
				}
				var sv float64
				for _, u := range g.Neighbors(v) {
					du := dist[u]
					if du == -1 {
						continue
					}
					ju := L - 1 - int(du)
					if ju >= 0 && ju <= k {
						sv += sigma[int(u)*stride+ju]
					}
				}
				sigma[int(v)*stride+(L-d)] = sv
			}
		}
	}
	for _, v := range order {
		var tot float64
		base := int(v) * stride
		for j := 0; j <= k; j++ {
			tot += sigma[base+j]
		}
		sigTot[v] = tot
	}

	// Phase 3: backward sweep in decreasing walk length.
	for L := maxLen; L >= 0; L-- {
		for d := max(L-k, 0); d <= min(L, maxDist); d++ {
			for _, v := range levelSlice(d) {
				var dv float64
				if v != s {
					dv = 1 / sigTot[v]
				}
				for _, w := range g.Neighbors(v) {
					if w == s {
						continue
					}
					dw := dist[w]
					if dw == -1 {
						continue
					}
					jw := L + 1 - int(dw)
					if jw >= 0 && jw <= k {
						dv += dep[int(w)*stride+jw]
					}
				}
				dep[int(v)*stride+(L-d)] = dv
			}
		}
	}

	for _, v := range order {
		if v == s {
			continue
		}
		base := int(v) * stride
		var credit float64
		for j := 0; j <= k; j++ {
			credit += sigma[base+j] * dep[base+j]
		}
		credit -= 1
		if k >= 2 {
			bt := 0
			for _, w := range g.Neighbors(v) {
				if w != s && w != v && dist[w] != -1 {
					bt++
				}
			}
			credit -= sigma[base] * float64(bt) / sigTot[v]
		}
		if credit > 0 {
			sink.add(v, credit)
		}
	}
}

// kbcOracle sums kbcOracleSource over every source of g, one after another
// into one score array: the exact k-betweenness a full run estimates.
func kbcOracle(g *graph.Graph, k int) []float64 {
	sink := scoreSink{local: make([]float64, g.NumVertices()), scale: 1}
	for s := int32(0); int(s) < g.NumVertices(); s++ {
		kbcOracleSource(g, s, k, sink)
	}
	return sink.local
}

// requireKBCMatchesOracle runs kbcSource and kbcOracleSource from every
// source of g (every sixteenth under -race), each into its own fresh
// stripe, and fails unless the two stripes agree with == after each.
func requireKBCMatchesOracle(t *testing.T, g *graph.Graph, k int) {
	t.Helper()
	n := g.NumVertices()
	ws := newWorkspace(g, k)
	got := scoreSink{local: make([]float64, n), scale: 1}
	want := scoreSink{local: make([]float64, n), scale: 1}
	step := int32(1)
	if raceEnabled {
		step = 16
	}
	for s := int32(0); int(s) < n; s += step {
		clear(got.local)
		clear(want.local)
		kbcSource(g, s, ws, got)
		kbcOracleSource(g, s, k, want)
		for v := range want.local {
			if got.local[v] != want.local[v] {
				t.Fatalf("k=%d source %d: stripe[%d] = %v, oracle %v", k, s, v, got.local[v], want.local[v])
			}
		}
	}
}

// unfoldedFor is the k = 0 path before pendant folding: every source swept
// on g itself, one after another into one score array, in the order given.
// It is the reference the folded run is compared against; with one source
// in flight the unfolded driver matches it to the bit.
func unfoldedFor(g *graph.Graph, sources []int32, scale float64) []float64 {
	return sweepEach(g, sources, scale, brandesSource)
}

// pullFor is unfoldedFor with every backward level pulled.
func pullFor(g *graph.Graph, sources []int32, scale float64) []float64 {
	return sweepEach(g, sources, scale, pullSource)
}

// pullSource is brandesSource with pullBackwardSweep.
func pullSource(g *graph.Graph, s int32, ws *workspace, sink scoreSink) {
	defer ws.reset()
	ws.forwardSweep(g, s)
	if reached := pullBackwardSweep(g, s, ws, sink); sink.leaf != 0 {
		sink.local[s] += sink.leaf * (reached - 2)
	}
}

// sweepEach runs source on every source in the order given, one after
// another on one workspace into one score array.
func sweepEach(g *graph.Graph, sources []int32, scale float64, source func(*graph.Graph, int32, *workspace, scoreSink)) []float64 {
	ws := newWorkspace(g, 0)
	sink := scoreSink{local: make([]float64, g.NumVertices()), scale: scale}
	for _, s := range sources {
		source(g, s, ws, sink)
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
// with its oracle on, at sizes where every source can be swept, plus
// upDownUp: each one stresses one direction of the sweep or an edge case
// of the level bookkeeping.
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
		"up-down-up":            upDownUp(t, 1),
	}
}

// TestHybridSweepMatchesOracle compares the kernel with the top-down
// oracle and with brute force on the adversarial shapes, and k = 1 with
// the retired k-betweenness kernel, at one, two and four sources in
// flight. The backward sweeps fix the summation order inside a source,
// but which stripe a source lands in depends on scheduling, so sums over
// sources agree to the repository tolerance, not to the bit. Cases keep
// the compact=false level from when a delta-varint compact graph ran
// beside the raw one, so their names stay stable.
func TestHybridSweepMatchesOracle(t *testing.T) {
	for name, g := range adversarialShapes(t) {
		t.Run(name, func(t *testing.T) {
			want := [2][]float64{
				topDownCentrality(g),
				kbcOracle(g, 1),
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

// TestKBCMatchesOracle holds kbcSource to the retired kernel, to the bit,
// source by source, at k = 0, 1 and 2: on the adversarial shapes, 20
// seeded random graphs, R-MAT 10 and a binary tree.
func TestKBCMatchesOracle(t *testing.T) {
	graphs := adversarialShapes(t)
	for seed := int64(1); seed <= 20; seed++ {
		graphs[fmt.Sprintf("erdos-renyi-%d", seed)] = gen.ErdosRenyi(200, 900, seed)
	}
	graphs["rmat10"] = gen.RMAT(gen.PaperRMAT(10, 1))
	graphs["binary-tree"] = gen.BinaryTree(63)
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			for k := 0; k <= MaxK; k++ {
				requireKBCMatchesOracle(t, g, k)
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

// upDownUp is built so a sweep from vertex 0 runs a bottom-up level, then
// a top-down one, then bottom-up again, and the second bottom-up level
// walks an unvisited list that still holds the ids the top-down level
// reached: 0's 120 neighbours (A, dense among themselves) find, bottom-up,
// two vertices (B) adjacent to all of them; B's two-vertex frontier is
// under n/β, so they find, top-down, 250 vertices (C) that touch both and
// each other; C then finds 100 leaves (D) bottom-up. The ids are shuffled
// so the stale C ids lie scattered through the list.
func upDownUp(t testing.TB, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	const a, b, c, d = 120, 2, 250, 100
	id := rng.Perm(1 + a + b + c + d)
	for i, v := range id {
		if v == 0 {
			id[0], id[i] = id[i], id[0] // keep the source at 0
		}
	}
	A, B, C, D := 1, 1+a, 1+a+b, 1+a+b+c
	var edges []graph.Edge
	arc := func(u, v int) { edges = append(edges, graph.Edge{U: int32(id[u]), V: int32(id[v])}) }
	for i := range a {
		arc(0, A+i)
		for range 6 {
			arc(A+i, A+rng.Intn(a))
		}
		for j := range b {
			arc(A+i, B+j)
		}
	}
	for i := range c {
		for j := range b {
			arc(B+j, C+i)
		}
		for range 4 {
			arc(C+i, C+rng.Intn(c))
		}
	}
	for i := range d {
		for range 1 + rng.Intn(2) {
			arc(D+i, C+rng.Intn(c))
		}
	}
	return mustEdges(t, len(id), edges, graph.Options{})
}

// upDownUpPath reports whether levels, a sweep's levelAsc, has a level
// found bottom-up, a later one found top-down and a later one again found
// bottom-up: the second bottom-up level walked a list with stale ids.
func upDownUpPath(levels []bool) bool {
	stage := 0
	for _, up := range levels[1:] {
		if up == (stage != 1) {
			stage++
		}
	}
	return stage >= 3
}

// TestUnvisitedListDropsStaleIDs holds the sweep on upDownUp to the
// top-down oracle with ==, every source in turn into one score array, after
// checking that the sweep from vertex 0 takes the bottom-up → top-down →
// bottom-up path the shape is built for.
func TestUnvisitedListDropsStaleIDs(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g := upDownUp(t, seed)
		ws := newWorkspace(g, 0)
		ws.forwardSweep(g, 0)
		if !upDownUpPath(ws.levelAsc) {
			t.Fatalf("seed %d: levels found bottom-up %v; no top-down level between two bottom-up ones", seed, ws.levelAsc)
		}
		n := g.NumVertices()
		sources := make([]int32, n)
		for v := range sources {
			sources[v] = int32(v)
		}
		got, want := unfoldedFor(g, sources, 1), topDownCentrality(g)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("seed %d, v=%d: %v, want top-down's bit-identical %v", seed, v, got[v], want[v])
			}
		}
	}
}

// TestBottomUpLevelsWalkUnvisited guards against the bottom-up levels
// silently going back to walking every id, or keeping ids they no longer
// need (either would pass the equivalence tests while losing the
// optimization): over sweeps from the degree-ordered R-MAT 12's hubs and
// from upDownUp's vertex 0, the ids they examine (the upIDs probe) must
// stay within n for each sweep's first bottom-up level plus, for each
// later one, the ids still unvisited when the bottom-up level before it
// ended — the ids unvisited at its start, unless a top-down level ran
// between the two.
func TestBottomUpLevelsWalkUnvisited(t *testing.T) {
	rmat, _, err := graph.Layout{Reorder: graph.ReorderDegree}.Apply(gen.RMAT(gen.PaperRMAT(12, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		g       *graph.Graph
		sources int32
	}{
		"rmat12-hubs": {rmat, 16},
		"up-down-up":  {upDownUp(t, 1), 1},
	} {
		g := c.g
		n := int64(g.NumVertices())
		ws := newWorkspace(g, 0)
		var bound, everyID int64
		for s := int32(0); s < c.sources; s++ {
			ups := ws.bottomUps
			ws.forwardSweep(g, s)
			// ends holds, per bottom-up level, the ids visited when it
			// ended; a last one that found nothing ends where the sweep does.
			var ends []int64
			for i := 1; i < len(ws.levelStart); i++ {
				if !ws.levelAsc[i] {
					continue
				}
				end := int64(len(ws.order))
				if i+1 < len(ws.levelStart) {
					end = int64(ws.levelStart[i+1])
				}
				ends = append(ends, end)
			}
			if ws.bottomUps-ups > len(ends) {
				ends = append(ends, int64(len(ws.order)))
			}
			for j := range ends {
				if j == 0 {
					bound += n
				} else {
					bound += n - ends[j-1]
				}
			}
			everyID += int64(len(ends)) * n
			ws.reset()
		}
		if bound == everyID {
			t.Fatalf("%s: no sweep ran two bottom-up levels; the test shows nothing", name)
		}
		if ws.upIDs > bound {
			t.Fatalf("%s: bottom-up levels examined %d ids, want at most %d (walking every id: %d)", name, ws.upIDs, bound, everyID)
		}
	}
}

// requireBackwardMatchesPull sweeps every source of g (every sixteenth
// under -race) forward twice, once into backwardSweep and once into
// pullBackwardSweep, each on its own workspace and score stripe, and fails
// unless after each source the reach, every reached vertex's delta and the
// two stripes agree with ==. pend, if not nil, is a fold's pendant counts
// on g.
func requireBackwardMatchesPull(t *testing.T, g *graph.Graph, pend []float64) {
	t.Helper()
	n := g.NumVertices()
	got, want := newWorkspace(g, 0), newWorkspace(g, 0)
	got.pend, want.pend = pend, pend
	gotSink := scoreSink{local: make([]float64, n), scale: 3}
	wantSink := scoreSink{local: make([]float64, n), scale: 3}
	step := int32(1)
	if raceEnabled {
		step = 16
	}
	for s := int32(0); int(s) < n; s += step {
		got.forwardSweep(g, s)
		want.forwardSweep(g, s)
		gotReach := backwardSweep(g, s, got, gotSink)
		wantReach := pullBackwardSweep(g, s, want, wantSink)
		if gotReach != wantReach {
			t.Fatalf("source %d: reached %v, pull %v", s, gotReach, wantReach)
		}
		for _, v := range want.order {
			if got.delta[v] != want.delta[v] {
				t.Fatalf("source %d: delta[%d] = %v, pull %v", s, v, got.delta[v], want.delta[v])
			}
		}
		// Only reached entries of a stripe move in a backward sweep.
		for _, v := range want.order {
			if gotSink.local[v] != wantSink.local[v] {
				t.Fatalf("source %d: stripe[%d] = %v, pull %v", s, v, gotSink.local[v], wantSink.local[v])
			}
		}
		got.reset()
		want.reset()
	}
}

// requireRunMatchesPull runs Centrality on g, which must take one source
// at a time, and fails unless its scores equal with == the same run's
// through pullSource: folded, if the fold rule folds it, else unfolded.
func requireRunMatchesPull(t *testing.T, g *graph.Graph, opt Options) {
	t.Helper()
	sources, _, scale := drawSources(g, opt)
	var want []float64
	if f := planFold(g, sources); f != nil {
		scores, err := runSources(context.Background(), f.core.NumVertices(), f.sweeps, scale, 1, func() sourceKernel {
			ws := newWorkspace(f.core, 0)
			ws.pend = f.pend
			return func(s int32, sink scoreSink) { pullSource(f.core, s, ws, sink) }
		})
		if err != nil {
			t.Fatal(err)
		}
		want = f.expand(scores)
	} else {
		want = pullFor(g, sources, scale)
	}
	got := Centrality(g, opt).Scores
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("v=%d: %v, want bit-identical %v", v, got[v], want[v])
		}
	}
}

// wideThenNarrow is built so the backward sweep pushes from a level the
// forward sweep found top-down, out of id order: from vertex 0, a dense
// level of 60 vertices, then 40 vertices each under 2–8 random parents of
// it, then 200 leaves under one or two of those; 1,700 isolated vertices
// keep every frontier under n/β, so every level runs top-down. Pushing
// that level unsorted sums a parent's terms out of order.
func wideThenNarrow(t testing.TB, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for u := int32(1); u <= 60; u++ {
		edges = append(edges, graph.Edge{U: 0, V: u})
		for v := u + 1; v <= 60; v++ {
			if rng.Intn(2) == 0 {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	for w := int32(61); w <= 100; w++ {
		for range 2 + rng.Intn(7) {
			edges = append(edges, graph.Edge{U: 1 + int32(rng.Intn(60)), V: w})
		}
	}
	for x := int32(101); x <= 300; x++ {
		for range 1 + rng.Intn(2) {
			edges = append(edges, graph.Edge{U: 61 + int32(rng.Intn(40)), V: x})
		}
	}
	return mustEdges(t, 2000, edges, graph.Options{})
}

// septComponent is the largest component of the undirected Sept-1 mention
// graph at the given corpus scale.
func septComponent(scale float64) *graph.Graph {
	mentions := tweets.Build(tweets.FilterSpam(tweets.Generate(tweets.Sept1Corpus(scale, 1)), 0))
	g, _ := cc.Largest(mentions.Undirected())
	return g
}

// TestBackwardSweepMatchesPull holds the direction-optimizing backward
// sweep to the pull sweep it replaced, to the bit, source by source: on
// the adversarial shapes, a shape whose pushed level is unsorted, 50
// seeded random graphs, the degree-ordered R-MAT 12 and the Sept-1 tweet
// component, unfolded and folded. Then, on the last two, whole runs at one
// source in flight, exact and sampled, folded and not: the kernel's
// scores equal the pull sweep's with ==.
func TestBackwardSweepMatchesPull(t *testing.T) {
	for name, g := range adversarialShapes(t) {
		t.Run(name, func(t *testing.T) { requireBackwardMatchesPull(t, g, nil) })
	}
	t.Run("wide-then-narrow", func(t *testing.T) {
		for seed := int64(1); seed <= 4; seed++ {
			requireBackwardMatchesPull(t, wideThenNarrow(t, seed), nil)
		}
	})
	t.Run("erdos-renyi", func(t *testing.T) {
		for seed := int64(1); seed <= 50; seed++ {
			requireBackwardMatchesPull(t, gen.ErdosRenyi(400, 2400, seed), nil)
		}
	})
	rmat, _, err := graph.Layout{Reorder: graph.ReorderDegree}.Apply(gen.RMAT(gen.PaperRMAT(12, 1)))
	if err != nil {
		t.Fatal(err)
	}
	sept := septComponent(0.01)
	t.Run("rmat12-degree", func(t *testing.T) { requireBackwardMatchesPull(t, rmat, nil) })
	t.Run("sept-unfolded", func(t *testing.T) { requireBackwardMatchesPull(t, sept, nil) })
	t.Run("sept-folded", func(t *testing.T) {
		f := planFold(sept, sampleSources(sept.NumVertices(), 0, 0))
		if f == nil {
			t.Fatal("fold declined on the tweet component")
		}
		requireBackwardMatchesPull(t, f.core, f.pend)
	})

	for _, c := range []struct {
		name    string
		g       *graph.Graph
		samples int
		force   bool
		folds   bool
	}{
		{"rmat12-degree", rmat, 0, false, true},
		{"rmat12-degree", rmat, 64, false, false},
		{"rmat12-degree", rmat, 64, true, true},
		{"sept", sept, 64, false, true},
		{"sept", sept, 512, false, true},
	} {
		t.Run(fmt.Sprintf("run-%s-samples=%d-force=%v", c.name, c.samples, c.force), func(t *testing.T) {
			if raceEnabled && c.samples == 0 {
				t.Skip("exact run under -race")
			}
			if c.force {
				forceFold(t)
			}
			opt := Options{Samples: c.samples, Seed: 5, Concurrency: 1}
			if sources, _, _ := drawSources(c.g, opt); (planFold(c.g, sources) != nil) != c.folds {
				t.Fatalf("fold %v, want %v", !c.folds, c.folds)
			}
			requireRunMatchesPull(t, c.g, opt)
		})
	}
}

// TestBackwardSweepPushesHubLevels guards against the backward sweep
// silently degrading to pulling every level (which would pass the
// equivalence tests while losing the optimization): on the degree-ordered
// R-MAT 12, sweeps from its hubs must read at most half the arcs of the
// rows they reach.
func TestBackwardSweepPushesHubLevels(t *testing.T) {
	g, _, err := graph.Layout{Reorder: graph.ReorderDegree}.Apply(gen.RMAT(gen.PaperRMAT(12, 1)))
	if err != nil {
		t.Fatal(err)
	}
	ws := newWorkspace(g, 0)
	sink := scoreSink{local: make([]float64, g.NumVertices()), scale: 1}
	var rows int64
	for s := int32(0); s < 16; s++ {
		ws.forwardSweep(g, s)
		for _, v := range ws.order {
			rows += int64(g.Degree(v))
		}
		backwardSweep(g, s, ws, sink)
		ws.reset()
	}
	if 2*ws.backArcs > rows {
		t.Fatalf("backward sweeps read %d of %d row arcs; hub levels not pushed?", ws.backArcs, rows)
	}
}

// oracleSide, oraclePairs and oracleBidirSample are the adaptive sampler
// this package shipped before its two searches ran on Brandes' top-down
// level step, kept verbatim (renamed) as the reference bidirSample must
// match to the bit: the same meets in the same order, so the same drawn
// path and the same counts.
//
// oracleSide is one direction of the bidirectional search.
type oracleSide struct {
	dist  []int32
	sigma []float64
	order []int32 // labeled vertices in label order (reset bookkeeping)
	front int     // index into order where the current frontier begins
	level int32   // completed levels: sigma is final for dist ≤ level
}

func (sd *oracleSide) init(v int32) {
	sd.dist[v] = 0
	sd.sigma[v] = 1
	sd.order = append(sd.order, v)
	sd.front = 0
	sd.level = 0
}

func (sd *oracleSide) reset() {
	for _, v := range sd.order {
		sd.dist[v] = -1
		sd.sigma[v] = 0
	}
	sd.order = sd.order[:0]
	sd.front = 0
	sd.level = 0
}

// frontierEdges is the expansion cost of the side's current frontier.
func (sd *oracleSide) frontierEdges(g *graph.Graph) int64 {
	var e int64
	for _, u := range sd.order[sd.front:] {
		e += int64(g.Degree(u))
	}
	return e
}

// oraclePairs holds one worker's per-sample state. Arrays are kept
// clean between samples by resetting only the vertices a sample touched,
// the same discipline as the Brandes workspace.
type oraclePairs struct {
	f, b   oracleSide
	meets  []int32 // vertices labeled by both sides, in second-label order
	counts []int64 // worker-local interior-hit counts
}

func newOraclePairs(n int) *oraclePairs {
	ws := &oraclePairs{counts: make([]int64, n)}
	for _, sd := range []*oracleSide{&ws.f, &ws.b} {
		sd.dist = make([]int32, n)
		for i := range sd.dist {
			sd.dist[i] = -1
		}
		sd.sigma = make([]float64, n)
		sd.order = make([]int32, 0, n)
	}
	return ws
}

func (ws *oraclePairs) reset() {
	ws.f.reset()
	ws.b.reset()
	ws.meets = ws.meets[:0]
}

// expandLevel grows side x by one level, accumulating path counts and
// recording vertices that become labeled by both sides ("meets"). Returns
// the updated minimum distF+distB over newly met vertices.
func (ws *oraclePairs) expandLevel(g *graph.Graph, x, y *oracleSide, minSum int32) int32 {
	frontier := x.order[x.front:]
	x.front = len(x.order)
	next := x.level + 1
	for _, u := range frontier {
		su := x.sigma[u]
		for _, v := range g.Neighbors(u) {
			switch x.dist[v] {
			case -1:
				x.dist[v] = next
				x.sigma[v] = su
				x.order = append(x.order, v)
				if y.dist[v] >= 0 {
					ws.meets = append(ws.meets, v)
					if sum := next + y.dist[v]; sum < minSum {
						minSum = sum
					}
				}
			case next:
				x.sigma[v] += su
			}
		}
	}
	x.level = next
	return minSum
}

// oracleBidirSample samples one uniform shortest s→t path and increments
// ws.counts for its interior vertices; disconnected pairs contribute
// nothing. The graph must be undirected (adjacency symmetric), which the
// caller guarantees.
func oracleBidirSample(g *graph.Graph, ws *oraclePairs, s, t int32, rng *sm64) {
	defer ws.reset()
	ws.f.init(s)
	ws.b.init(t)
	const noMeet = int32(math.MaxInt32)
	minSum := noMeet
	for {
		if ws.f.front == len(ws.f.order) || ws.b.front == len(ws.b.order) {
			return // a side exhausted its component without meeting: no path
		}
		// Balanced expansion: grow the cheaper frontier.
		if ws.f.frontierEdges(g) <= ws.b.frontierEdges(g) {
			minSum = ws.expandLevel(g, &ws.f, &ws.b, minSum)
		} else {
			minSum = ws.expandLevel(g, &ws.b, &ws.f, minSum)
		}
		// Once the completed levels cover a meeting sum, that sum is
		// exactly d(s,t): any shorter path would have produced a meet
		// with a smaller (true-distance) sum already.
		if minSum <= ws.f.level+ws.b.level {
			break
		}
	}
	d := minSum
	// Split level: count paths through vertices at forward distance c and
	// backward distance d-c. c ≤ f.level and d-c ≤ b.level hold by the
	// stopping condition, so both sides' σ are final at the split.
	c := d - ws.b.level
	if c < 0 {
		c = 0
	}
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
func (ws *oraclePairs) backtrack(g *graph.Graph, sd *oracleSide, m, level int32, rng *sm64) {
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

// oracleSampleStep returns one estimator's sample step through the oracle
// sampler: sample i draws its pair as samplePair does and adds its path
// to pw.counts.
func oracleSampleStep(est *adaptiveEstimator, pw *oraclePairs) func(i int64) {
	return func(i int64) {
		rng := sm64{state: deriveState(est.seed, i)}
		n := int32(est.n)
		s := rng.intn(n)
		t := rng.intn(n - 1)
		if t >= s {
			t++
		}
		oracleBidirSample(est.g, pw, s, t, &rng)
	}
}

// oracleApprox is ApproxCentrality run serially on the oracle sampler:
// the same rounds, stopping rule and scaling, through adaptiveEstimator.run.
func oracleApprox(g *graph.Graph, opt ApproxOptions) *ApproxResult {
	est := newAdaptiveEstimator(g, opt, opt.Epsilon, opt.Delta)
	pw := newOraclePairs(est.n)
	step := oracleSampleStep(est, pw)
	res, err := est.run(func(from, to int) error {
		for i := from; i < to; i++ {
			step(int64(i))
		}
		copy(est.counts, pw.counts)
		return nil
	})
	if err != nil {
		panic(err) // unreachable: the oracle's sample step returns no error
	}
	return res
}

// retiredPasses is the stopping check the Chernoff–KL rule replaced, at
// t samples and per-check failure budget δ′: the smaller of the
// empirical-Bernstein radius √(2p̂(1−p̂)·ln(3/δ′)/t) + 3·ln(3/δ′)/t and
// the Hoeffding radius √(ln(2/δ′)/2t) must be at most ε.
func retiredPasses(c int64, t int, eps, deltaPrime float64) bool {
	tf := float64(t)
	p := float64(c) / tf
	lnB, lnH := math.Log(3/deltaPrime), math.Log(2/deltaPrime)
	radB := math.Sqrt(2*p*(1-p)*lnB/tf) + 3*lnB/tf
	radH := math.Sqrt(lnH / (2 * tf))
	return min(radB, radH) <= eps
}

// requireKLRuleCovers checks one point of the rule's contract: wherever
// the retired check passes at the same t and δ′, the KL check passes,
// and at t ≥ ⌈L/2ε²⌉ it passes whatever the count.
func requireKLRuleCovers(t *testing.T, c int64, tn int, eps, deltaPrime float64) {
	t.Helper()
	lnL := math.Log(2 / deltaPrime)
	got := klPasses(c, tn, eps, lnL)
	if !got && retiredPasses(c, tn, eps, deltaPrime) {
		t.Fatalf("c=%d t=%d eps=%v δ′=%v: the retired check passes, the KL check does not", c, tn, eps, deltaPrime)
	}
	if tMax := int(math.Ceil(lnL / (2 * eps * eps))); !got && tn >= tMax {
		t.Fatalf("c=%d t=%d eps=%v δ′=%v: the KL check fails at t ≥ tMax = %d", c, tn, eps, deltaPrime, tMax)
	}
}

// TestKLRuleFiresWhenRetiredRuleFires holds the KL check to the one it
// replaced on a grid of (c, t, ε, δ′): counts near 0, near t/2 and near
// t, and every count at the tMax those ε and δ′ give.
func TestKLRuleFiresWhenRetiredRuleFires(t *testing.T) {
	points := 0
	for _, eps := range []float64{0.002, 0.005, 0.01, 0.02, 0.03, 0.05, 0.1, 0.2, 0.45} {
		for _, deltaPrime := range []float64{1e-12, 1e-9, 1e-7, 1e-5, 1e-3, 0.05} {
			lnL := math.Log(2 / deltaPrime)
			tMax := int(math.Ceil(lnL / (2 * eps * eps)))
			ts := []int{1, 2, 7, 64, 256, 320, 1000, 3328, 4352, 9728, 16384, tMax - 1, tMax, tMax + 1}
			for _, tn := range ts {
				if tn < 1 {
					continue
				}
				cs := []int64{0, 1, 2, 3, 5, 8, 13, int64(tn / 100), int64(tn / 10), int64(tn / 3), int64(tn / 2)}
				for i := range 40 {
					cs = append(cs, int64(tn)*int64(i)/39)
				}
				if tn >= tMax && tn <= 50000 {
					cs = cs[:0]
					for c := range int64(tn + 1) {
						cs = append(cs, c)
					}
				}
				for _, c := range cs {
					for _, cc := range []int64{c, int64(tn) - c} {
						if cc < 0 || cc > int64(tn) {
							continue
						}
						requireKLRuleCovers(t, cc, tn, eps, deltaPrime)
						points++
					}
				}
			}
		}
	}
	t.Logf("%d points", points)
}

// FuzzKLRule is TestKLRuleFiresWhenRetiredRuleFires on fuzzed points:
// the bytes become t in [1, 2²⁰], c ≤ t, ε in [0.001, 0.5] and δ′ in
// [10⁻¹⁵, 0.5].
func FuzzKLRule(f *testing.F) {
	f.Add(uint32(16384), uint32(0), uint16(9000), uint16(30000))
	f.Add(uint32(3328), uint32(1664), uint16(500), uint16(100))
	f.Add(uint32(77362), uint32(38681), uint16(600), uint16(65535))
	f.Fuzz(func(t *testing.T, tb, cb uint32, eb, db uint16) {
		tn := int(tb%(1<<20)) + 1
		c := int64(cb) % int64(tn+1)
		eps := 0.001 + 0.499*float64(eb)/65535
		deltaPrime := math.Pow(10, -15+14.7*float64(db)/65535)
		requireKLRuleCovers(t, c, tn, eps, deltaPrime)
		// The same ε and δ′ at their own cap, for this count's share.
		lnL := math.Log(2 / deltaPrime)
		tMax := int(math.Ceil(lnL / (2 * eps * eps)))
		requireKLRuleCovers(t, int64(float64(c)/float64(tn)*float64(tMax)), tMax, eps, deltaPrime)
	})
}

// TestBidirSampleMatchesOracle holds the sampler to the one it replaced,
// to the bit: the worker counts after every sample, on the adversarial
// shapes, R-MAT 12 and the Sept-1 ×0.01 component, and whole
// ApproxCentrality runs (scores and guarantee, all vertices and top 10)
// at one and two workers.
func TestBidirSampleMatchesOracle(t *testing.T) {
	graphs := adversarialShapes(t)
	graphs["rmat12"] = gen.RMAT(gen.PaperRMAT(12, 1))
	graphs["sept-0.01"] = septComponent(0.01)
	for name, g := range graphs {
		if g.Directed() {
			g = g.Undirected()
		}
		n := g.NumVertices()
		if n < 3 {
			continue
		}
		t.Run(name, func(t *testing.T) {
			est := newAdaptiveEstimator(g, ApproxOptions{Seed: 3, Concurrency: 1}, DefaultEpsilon, DefaultDelta)
			ws := est.ws[0]
			pw := newOraclePairs(n)
			step := oracleSampleStep(est, pw)
			for i := int64(0); i < 2000; i++ {
				est.samplePair(ws, i)
				step(i)
				if !slices.Equal(ws.counts, pw.counts) {
					t.Fatalf("counts differ from the oracle after sample %d", i)
				}
			}
		})
	}
	for _, name := range []string{"rmat12", "sept-0.01", "loops-and-multi-edges"} {
		g := graphs[name]
		for _, topK := range []int{0, 10} {
			opt := ApproxOptions{Epsilon: 0.02, Delta: 0.1, Seed: 5, TopK: topK}
			want := oracleApprox(g, opt)
			for _, c := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/top=%d/c=%d", name, topK, c), func(t *testing.T) {
					opt.Concurrency = c
					got := ApproxCentrality(g, opt)
					if !slices.Equal(got.Scores, want.Scores) {
						t.Fatal("scores differ from the oracle")
					}
					if got.Guarantee != want.Guarantee {
						t.Fatalf("guarantee %+v, oracle %+v", got.Guarantee, want.Guarantee)
					}
				})
			}
		}
	}
}
