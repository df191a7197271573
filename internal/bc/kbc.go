package bc

import (
	"graphct/internal/graph"
	"graphct/internal/par"
)

// kbcSource accumulates one source's k-betweenness contributions into
// sink. Following Jiang, Ediger & Bader, it counts walks of length up to
// k beyond the shortest path: after a BFS fixes distances, a forward sweep
// in path-length order computes sigma[v][j] — the number of admissible
// walks from s reaching v with slack j in [0, k] — and a backward sweep
// evaluates the generalized Brandes recurrence.
//
// With sigTot[t] = Σ_j sigma[t][j] (the paper's σ^k_st), the backward pass
// computes D[v][j] = Σ_t (walks v→t using the remaining slack)/sigTot[t],
// giving each vertex the closed-form credit Σ_j sigma[v][j]·D[v][j] − 1
// (the −1 removes v's own contribution as a path endpoint). At k = 0 this
// reduces exactly to Brandes's betweenness, which the tests verify.
//
// The source never appears as an intermediate or target vertex: walks
// re-entering s are not counted (sigma[s][j>0] stays 0 and s is skipped in
// the backward sums).
func kbcSource(g *graph.Graph, s int32, ws *workspace, sink scoreSink) {
	defer ws.reset()
	k := ws.k
	stride := k + 1
	dist, sigma, dep, sigTot := ws.dist, ws.sigma, ws.delta, ws.sigTot

	// Phase 1: BFS from s recording visitation order and level offsets.
	dist[s] = 0
	ws.order = append(ws.order, s)
	ws.levelStart = append(ws.levelStart, 0)
	frontier := ws.order[0:1]
	for len(frontier) > 0 {
		frontierEnd := len(ws.order)
		for _, u := range frontier {
			du := dist[u]
			for _, v := range g.Neighbors(u) {
				if dist[v] == -1 {
					dist[v] = du + 1
					ws.order = append(ws.order, v)
				}
			}
		}
		if len(ws.order) == frontierEnd {
			break
		}
		ws.levelStart = append(ws.levelStart, frontierEnd)
		frontier = ws.order[frontierEnd:]
	}
	maxDist := len(ws.levelStart) - 1
	maxLen := maxDist + k

	levelSlice := func(d int) []int32 {
		if d < 0 || d > maxDist {
			return nil
		}
		lo := ws.levelStart[d]
		hi := len(ws.order)
		if d+1 <= maxDist {
			hi = ws.levelStart[d+1]
		}
		return ws.order[lo:hi]
	}

	// Phase 2: forward sweep in increasing walk length L. A walk of
	// length L arrives at v with slack j = L − dist[v]; its last step
	// leaves a neighbor u holding slack L−1−dist[u].
	sigma[int(s)*stride] = 1
	for L := 1; L <= maxLen; L++ {
		dLo := L - k
		if dLo < 0 {
			dLo = 0
		}
		dHi := L
		if dHi > maxDist {
			dHi = maxDist
		}
		for d := dLo; d <= dHi; d++ {
			lvl := levelSlice(d)
			par.ForGuided(len(lvl), 128, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					v := lvl[i]
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
			})
		}
	}
	for _, v := range ws.order {
		var tot float64
		base := int(v) * stride
		for j := 0; j <= k; j++ {
			tot += sigma[base+j]
		}
		sigTot[v] = tot
	}

	// Phase 3: backward sweep in decreasing walk length. dep[v][j] sums,
	// over targets t, the admissible v→t walk continuations divided by
	// sigTot[t]; the empty continuation contributes v's own target term.
	for L := maxLen; L >= 0; L-- {
		dLo := L - k
		if dLo < 0 {
			dLo = 0
		}
		dHi := L
		if dHi > maxDist {
			dHi = maxDist
		}
		for d := dLo; d <= dHi; d++ {
			lvl := levelSlice(d)
			par.ForGuided(len(lvl), 128, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					v := lvl[i]
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
			})
		}
	}

	// Credit: Σ_j sigma[v][j]·dep[v][j] overcounts pairs whose target is v
	// itself. Walks ending at v contribute sigTot[v] final arrivals (the
	// constant −1 after normalization) plus, at k = 2, one interior visit
	// per walk that backtracked v→w→v at slack 0 — there are
	// sigma[v][0]·bt(v) of those, with bt(v) the reachable non-source
	// neighbor count. Slack bounds make deeper self-returns impossible
	// for k ≤ 2, which is why the kernel caps k there.
	for _, v := range ws.order {
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
