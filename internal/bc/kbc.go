package bc

import "graphct/internal/graph"

// kbcSource accumulates one source's k-betweenness contributions into
// sink. Following Jiang, Ediger & Bader, it counts walks of length up to
// k beyond the shortest path: sigma[j][v] is the number of admissible
// walks from s reaching v with slack j in [0, k] (length dist[v] + j), and
// a backward pass evaluates the generalized Brandes recurrence.
//
// With sigTot[t] = Σ_j sigma[j][t] (the paper's σ^k_st), the backward pass
// computes D[j][v] = Σ_t (walks v→t using the remaining slack)/sigTot[t],
// giving each vertex the closed-form credit Σ_j sigma[j][v]·D[j][v] − 1
// (the −1 removes v's own contribution as a path endpoint). At k = 0 this
// reduces exactly to Brandes's betweenness, which the tests verify.
//
// The workspace holds both tables column-major, slack column j at
// [j·n, (j+1)·n), so column 0 is the array Brandes' forwardSweep fills:
// it gives dist, the level-ordered visitation order and the slack-0 path
// counts. Every neighbour of a vertex on level d lies on level d−1, d or
// d+1, so a walk's last step into v at slack j leaves a neighbour holding
// slack j, j−1 or j−2 respectively: column j of level d reads column j of
// level d−1 and columns j−1 and j−2. The forward columns are therefore
// filled one at a time, j = 1..k, each in visitation (ascending level)
// order, and every cell read is final. Symmetrically, D[j] of level d
// reads D[j] of level d+1 and D[j+1], D[j+2]: the backward columns run
// j = k..0, each in reverse visitation order. Each cell sums its row's
// terms in row order, so the order cells are filled in cannot change a
// score: kbcOracleSource fills them by (walk length, level) and matches
// to the bit. Like forwardSweep, the recurrences read a vertex's row as
// its in-neighbours, so g must be undirected.
//
// The source never appears as an intermediate or target vertex: walks
// re-entering s are not counted (sigma[j>0][s] stays 0 and s is skipped in
// the backward sums). The kernel runs serially; sources are the unit of
// parallelism (runSources).
func kbcSource(g *graph.Graph, s int32, ws *workspace, sink scoreSink) {
	defer ws.reset()
	ws.forwardSweep(g, s)
	n, k := ws.n, ws.k
	dist, sigma, dep, sigTot := ws.dist, ws.sigma, ws.delta, ws.sigTot
	// order[0] is s, alone on level 0.
	reached := ws.order[1:]

	for j := 1; j <= k; j++ {
		col := sigma[j*n : (j+1)*n]
		for _, v := range reached {
			d := dist[v]
			var sv float64
			for _, u := range g.Neighbors(v) {
				if ju := j - 1 - int(dist[u]-d); ju >= 0 {
					sv += sigma[ju*n+int(u)]
				}
			}
			col[v] = sv
		}
	}
	for _, v := range reached {
		var tot float64
		for j := int(v); j < len(sigma); j += n {
			tot += sigma[j]
		}
		sigTot[v] = tot
	}

	// dep[j][v] sums, over targets t, the admissible v→t walk
	// continuations divided by sigTot[t]; the empty continuation
	// contributes v's own target term.
	for j := k; j >= 0; j-- {
		col := dep[j*n : (j+1)*n]
		for i := len(reached) - 1; i >= 0; i-- {
			v := reached[i]
			d := dist[v]
			dv := 1 / sigTot[v]
			for _, w := range g.Neighbors(v) {
				if w == s {
					continue
				}
				if jw := j + 1 - int(dist[w]-d); jw <= k {
					dv += dep[jw*n+int(w)]
				}
			}
			col[v] = dv
		}
	}

	// Credit: Σ_j sigma[j][v]·dep[j][v] overcounts pairs whose target is v
	// itself. Walks ending at v contribute sigTot[v] final arrivals (the
	// constant −1 after normalization) plus, at k = 2, one interior visit
	// per walk that backtracked v→w→v at slack 0 — there are
	// sigma[0][v]·bt(v) of those, with bt(v) the reachable non-source
	// neighbor count. Slack bounds make deeper self-returns impossible
	// for k ≤ 2, which is why the kernel caps k there.
	for _, v := range reached {
		var credit float64
		for j := int(v); j < len(sigma); j += n {
			credit += sigma[j] * dep[j]
		}
		credit -= 1
		if k >= 2 {
			bt := 0
			for _, w := range g.Neighbors(v) {
				if w != s && w != v {
					bt++
				}
			}
			credit -= sigma[v] * float64(bt) / sigTot[v]
		}
		if credit > 0 {
			sink.add(v, credit)
		}
	}
}
