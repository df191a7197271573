package bc

import (
	"math/bits"
	"slices"

	"graphct/internal/bfs"
	"graphct/internal/graph"
)

// search is what one top-down level step reads and writes: a
// level-synchronous search's hop distances (-1 unlabeled), path counts,
// the vertices labeled so far in label order and the offsets into order
// where each level begins. It holds 16·n bytes plus the offsets. The
// Brandes workspace embeds one, and the adaptive sampler runs one from
// each end of a pair (adaptive.go).
type search struct {
	dist       []int32
	sigma      []float64 // the workspace keeps k-BC's slack columns after the first n
	order      []int32
	levelStart []int
}

// newSearch sizes a search over n vertices with cols path-count columns.
func newSearch(n, cols int) search {
	sr := search{dist: make([]int32, n), sigma: make([]float64, n*cols), order: make([]int32, 0, n)}
	for i := range sr.dist {
		sr.dist[i] = -1
	}
	return sr
}

// start labels the root s: level 0, one path.
func (sr *search) start(s int32) {
	sr.dist[s] = 0
	sr.sigma[s] = 1
	sr.order = append(sr.order, s)
	sr.levelStart = append(sr.levelStart, 0)
}

// frontier is the last level begun.
func (sr *search) frontier() []int32 {
	return sr.order[sr.levelStart[len(sr.levelStart)-1]:]
}

// rowArcs sums the row lengths of vs.
func rowArcs(g *graph.Graph, vs []int32) int64 {
	var arcs int64
	for _, v := range vs {
		arcs += int64(g.Degree(v))
	}
	return arcs
}

// workspace holds the per-source O(n) arrays. One workspace belongs to one
// concurrency slot, which bounds total memory at O(S·(m+n)) for S in-flight
// sources, matching the paper's memory model. Arrays are kept clean between
// runs by resetting only the vertices the previous search touched.
//
// The per-vertex state stays in separate dense arrays rather than an
// interleaved struct-of-one-record layout: the whole per-source state
// fits L2 at bench scales and the hot entries are the relabeled hubs,
// which dense arrays pack 16-per-cache-line into L1 — measured faster
// than interleaving, which only pays off when every field access misses.
type workspace struct {
	search    // dist, sigma (slack column j at [j·n, (j+1)·n)), order, levelStart
	n, k      int
	delta     []float64 // dependencies; same columns as sigma
	sigTot    []float64 // per-vertex total short-path count (k > 0 only)
	levelArcs []int64   // arcs in each level's rows
	levelAsc  []bool    // level found bottom-up, so its order segment is ascending
	acc       []float64 // push accumulators of the backward sweep (k = 0 only)
	unvisited []int32   // ids the last bottom-up level left unvisited, ascending
	bottomUps int       // levels discovered pull-style; survives reset (test sentinel)
	upIDs     int64     // ids the bottom-up levels examined; survives reset (test and bench probe)
	backArcs  int64     // arcs the backward sweeps read; survives reset (test and bench probe)
	// pend[v] counts the pendants folded into v (fold.go); nil on an
	// unfolded graph. It is shared read-only by every slot of a run.
	pend []float64
}

// newWorkspace sizes a workspace for g.
func newWorkspace(g *graph.Graph, k int) *workspace {
	n := g.NumVertices()
	ws := &workspace{
		search: newSearch(n, k+1),
		n:      n, k: k,
		delta:     make([]float64, n*(k+1)),
		sigTot:    make([]float64, n),
		unvisited: make([]int32, 0, n),
	}
	if k == 0 {
		ws.acc = make([]float64, n)
	}
	return ws
}

// reset clears the entries touched by the last search: vertex by vertex,
// or, when the search reached more than half the graph, by clearing the
// dense arrays whole, which streams instead of scattering (a quarter of
// the time on a connected component; DESIGN §5).
func (ws *workspace) reset() {
	if 2*len(ws.order) > ws.n {
		for i := range ws.dist {
			ws.dist[i] = -1
		}
		clear(ws.sigma)
		clear(ws.delta)
		clear(ws.sigTot)
		clear(ws.acc)
	} else {
		for _, v := range ws.order {
			ws.dist[v] = -1
			for j := int(v); j < len(ws.sigma); j += ws.n {
				ws.sigma[j] = 0
				ws.delta[j] = 0
			}
			ws.sigTot[v] = 0
			if ws.acc != nil {
				ws.acc[v] = 0
			}
		}
	}
	ws.order = ws.order[:0]
	ws.levelStart = ws.levelStart[:0]
	ws.levelArcs = ws.levelArcs[:0]
	ws.levelAsc = ws.levelAsc[:0]
	ws.unvisited = ws.unvisited[:0]
}

// brandesSource runs one source's forward and backward sweeps,
// accumulating scaled dependency contributions into sink.
//
// The backward sweep sums each vertex's successor terms in ascending id
// whichever direction it takes, so the resulting scores are bit-identical
// whichever forward strategy discovered each level — the property the
// test against the top-down oracle pins down. (Path counts are
// integer-valued, so forward summation order cannot perturb them either.)
//
// On a folded graph the sweep from s also stands for sink.leaf's drawn
// pendants of s: a pendant's own sweep would be this one shifted a level
// down, with the same dependency on every vertex but s, and s on the path
// to every other vertex reached — all of them but the pendant and s.
func brandesSource(g *graph.Graph, s int32, ws *workspace, sink scoreSink) {
	defer ws.reset()
	ws.forwardSweep(g, s)
	if reached := backwardSweep(g, s, ws, sink); sink.leaf != 0 {
		sink.local[s] += sink.leaf * (reached - 2)
	}
}

// forwardSweep labels dist and sigma from s and records the visitation
// order, level offsets, each level's row arcs and whether its order
// segment is ascending. It is level-synchronous and
// direction-optimizing: each level runs top-down (push from the
// frontier) or bottom-up (every unvisited vertex pulls path counts
// straight from the frontier-sigma array) by the Beamer thresholds shared
// with the bfs engine. On scale-free graphs the two or three hub-dominated
// middle levels hold most of the edges; bottom-up stops those levels from
// scanning the whole edge list through the frontier. Pulling reads a
// vertex's own adjacency as its in-neighbors, so g must be undirected;
// every caller projects directed input first.
func (ws *workspace) forwardSweep(g *graph.Graph, s int32) {
	ws.start(s)
	ws.levelAsc = append(ws.levelAsc, true)
	frontier := ws.frontier()
	n := int64(g.NumVertices())
	remaining := g.NumArcs()
	listed := false
	for len(frontier) > 0 {
		frontierEdges := rowArcs(g, frontier)
		remaining -= frontierEdges
		ws.levelArcs = append(ws.levelArcs, frontierEdges)
		frontierEnd := len(ws.order)
		up := frontierEdges > remaining/bfs.HybridAlpha && int64(len(frontier)) > n/bfs.HybridBeta
		if up {
			ws.bottomUpLevel(g, frontier, listed)
			listed = true
		} else {
			ws.topDownLevel(g, frontier)
		}
		if len(ws.order) == frontierEnd {
			break
		}
		ws.levelStart = append(ws.levelStart, frontierEnd)
		ws.levelAsc = append(ws.levelAsc, up)
		frontier = ws.order[frontierEnd:]
	}
}

// topDownLevel expands the frontier push-style: the classic Brandes step,
// O(frontier out-edges). It appends the level it discovers to order, in
// discovery order; the caller records the level's offset.
func (sr *search) topDownLevel(g *graph.Graph, frontier []int32) {
	dist, sigma := sr.dist, sr.sigma
	for _, u := range frontier {
		du := dist[u]
		su := sigma[u]
		for _, v := range g.Neighbors(u) {
			if dist[v] == -1 {
				dist[v] = du + 1
				sr.order = append(sr.order, v)
			}
			if dist[v] == du+1 {
				sigma[v] += su
			}
		}
	}
}

// bottomUpLevel discovers the next level pull-style: every unvisited
// vertex scans its own adjacency and sums frontier path counts in one
// shot. O(unvisited-vertex edges), which on hub levels is far less than
// the frontier's out-edges. It discovers the level in ascending id.
//
// The first bottom-up level of a sweep (listed false) walks ids 0..n−1
// and appends the ones it leaves unvisited to ws.unvisited, which reset
// left empty. A later one walks only that list, compacting it in place:
// it drops the ids it discovers and those a top-down level reached since
// (dist != -1). The list stays ascending, so discovery does too, and on
// the hub-and-tree graphs, where most of a sweep's levels run bottom-up,
// the late levels stop re-walking the ids the hub levels already took.
//
// Frontier membership is encoded in the values themselves: fsig holds
// sigma[u] for frontier vertices and 0 everywhere else, so the inner loop
// is an unconditional load-and-add — no membership test, no branch to
// mispredict on the hub levels where half the neighbors are frontier.
// ws.delta is dead during the forward sweep (zeroed by reset) and hosts
// fsig; the frontier entries are re-zeroed before returning, restoring
// the all-zero invariant the next bottom-up level (and reset's
// bookkeeping) relies on.
func (ws *workspace) bottomUpLevel(g *graph.Graph, frontier []int32, listed bool) {
	ws.bottomUps++
	fsig := ws.delta
	sigma := ws.sigma
	for _, u := range frontier {
		fsig[u] = sigma[u]
	}
	d := ws.dist[frontier[0]] + 1
	dist := ws.dist
	// pull discovers v on level d if it has a frontier neighbour.
	pull := func(v int32) bool {
		var sv float64
		for _, u := range g.Neighbors(v) {
			sv += fsig[u]
		}
		if sv == 0 {
			return false
		}
		dist[v] = d
		sigma[v] = sv
		ws.order = append(ws.order, v)
		return true
	}
	if listed {
		ws.upIDs += int64(len(ws.unvisited))
		kept := ws.unvisited[:0]
		for _, v := range ws.unvisited {
			if dist[v] == -1 && !pull(v) {
				kept = append(kept, v)
			}
		}
		ws.unvisited = kept
	} else {
		ws.upIDs += int64(ws.n)
		for v := int32(0); int(v) < ws.n; v++ {
			if dist[v] == -1 && !pull(v) {
				ws.unvisited = append(ws.unvisited, v)
			}
		}
	}
	for _, u := range frontier {
		fsig[u] = 0
	}
}

// backwardSweep evaluates the Brandes dependency recurrence
// delta[v] = sigma[v] · Σ (1+delta[w])/sigma[w] over v's successors w,
// deepest level first. The successor term (1+delta[w])/sigma[w] is
// materialized into coef[w] once per vertex; ws.sigTot is dead in the
// k = 0 path and hosts coef without a new allocation. Each level i takes
// whichever direction reads fewer arcs:
//
//   - pull: each v on level i sums coef[w] over its own row;
//   - push: each w on level i+1, in ascending id, adds coef[w] into the
//     accumulator of every neighbour, and each v on level i reads its own.
//
// Pull reads level i's rows, push level i+1's, plus the cost of sorting
// level i+1 when the forward sweep found it top-down, in discovery order:
// |level|·log2|level|, in arcs. A pushed arc costs about what a pulled one
// does (DESIGN §5), so the rule compares the counts as they are. On
// scale-free graphs the hub levels are far wider in arcs than the level
// below them, and pushing from there reads a third of the arcs pulling
// does.
//
// Both directions sum the same nonzero terms in the same order, so the
// scores do not depend on the choice. A neighbour of a level-i vertex
// lives on level i-1, i or i+1, and coef is published for strictly deeper
// levels only — each level's coefficients after every delta of that level
// is computed — so pull's row sum adds coef[w] for successors in
// ascending id and +0.0 for everything else, which leaves a sum unchanged.
// Push adds the same successor terms, ascending because level i+1 is
// walked in ascending id, and adds nothing else into level i: only pushes
// from level i+1 write its accumulators before it reads them, and pushes
// into levels i+1 and i+2 land in accumulators already read. Repeated
// arcs add their term twice, adjacently, either way.
//
// On a folded graph each of v's pendants is one more successor, with
// sigma[v] paths and no dependency of its own, so it adds exactly 1 to
// delta[v]: pend[v] in all. The sweep returns the vertices s reaches in
// the unfolded graph, pendants included.
func backwardSweep(g *graph.Graph, s int32, ws *workspace, sink scoreSink) (reached float64) {
	sigma, delta, pend := ws.sigma, ws.delta, ws.pend
	coef, acc := ws.sigTot, ws.acc
	reached = float64(len(ws.order))
	levels := len(ws.levelStart)
	hi, below := len(ws.order), len(ws.order)
	for li := levels - 1; li >= 0; li-- {
		lo := ws.levelStart[li]
		lvl, next := ws.order[lo:hi], ws.order[hi:below]
		hi, below = lo, hi
		read, push := ws.levelArcs[li], false
		if li+1 < levels {
			cost := ws.levelArcs[li+1]
			if !ws.levelAsc[li+1] {
				cost += int64(len(next) * bits.Len(uint(len(next))))
			}
			push = cost < read
		}
		if push {
			if !ws.levelAsc[li+1] {
				slices.Sort(next)
			}
			for _, w := range next {
				c := coef[w]
				for _, x := range g.Neighbors(w) {
					acc[x] += c
				}
			}
			read = ws.levelArcs[li+1]
		}
		ws.backArcs += read
		for _, v := range lvl {
			var dsum float64
			if push {
				dsum = acc[v]
			} else {
				for _, w := range g.Neighbors(v) {
					dsum += coef[w]
				}
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
		// above, same-level neighbours must still read coef == 0.
		for _, v := range lvl {
			coef[v] = (1 + delta[v]) / sigma[v]
		}
	}
	return reached
}
