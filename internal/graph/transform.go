package graph

import (
	"slices"

	"graphct/internal/par"
)

// Undirected returns the undirected view of g: every arc u->v becomes edge
// {u,v}, duplicates merged. The GraphCT utility "convert a directed graph to
// an undirected graph". If g is already undirected it is returned as is.
//
// The view is memoized: the first call symmetrizes and every later call —
// including concurrent ones, which block on the first — returns the same
// *Graph. Symmetrization sorts one key per arc; callers like the
// centrality kernels and the serving path request the view once per kernel
// invocation, so without the memo a resident directed graph would be
// re-symmetrized on every request.
func (g *Graph) Undirected() *Graph {
	if !g.directed {
		return g
	}
	g.undirectedOnce.Do(func() {
		g.undirectedBuilds.Add(1)
		b := idBits(g.NumVertices())
		keys := g.emitKeys(func(u, w int32) uint64 { return uint64(min(u, w))<<b | uint64(max(u, w)) })
		g.undirected = build(g.NumVertices(), keys, nil, Options{KeepSelfLoops: true})
	})
	return g.undirected
}

// UndirectedBuilds reports how many times this graph has actually been
// symmetrized (0 or 1 once Undirected has memoized). Tests and the server
// use it to assert that concurrent requests share one symmetrization.
func (g *Graph) UndirectedBuilds() int {
	return int(g.undirectedBuilds.Load())
}

// emitKeys packs every arc u->w of g as key(u, w), one key per CSR slot
// (so g.weights stays aligned with the result), in parallel over rows.
func (g *Graph) emitKeys(key func(u, w int32) uint64) []uint64 {
	keys := make([]uint64, g.NumArcs())
	par.ForChunked(g.NumVertices(), 0, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			p := g.rowPtr[u]
			for i, w := range g.Neighbors(int32(u)) {
				keys[p+int64(i)] = key(int32(u), w)
			}
		}
	})
	return keys
}

// Induced extracts the subgraph on the vertices with keep[v] == true,
// relabeling vertices densely. It returns the subgraph and origID, where
// origID[new] is the vertex id in g. Edges with either endpoint outside the
// kept set are dropped, repeated arcs collapse to their first instance, and
// weights follow the arcs they belong to. This is GraphCT's "extract a
// subgraph induced by a coloring function".
func (g *Graph) Induced(keep []bool) (*Graph, []int32) {
	return g.induced(keep, true, true)
}

// InducedArcs is Induced for kernels that count unweighted shortest paths:
// every arc between kept vertices survives, repeats included, so path
// counts on a multigraph are those of g, and no weights are copied. Like
// Induced it is built in parallel rows from g's own invariants, with no
// re-validation.
func (g *Graph) InducedArcs(keep []bool) (*Graph, []int32) {
	return g.induced(keep, false, false)
}

// InducedArcsByDegree is InducedArcs with the kept vertices renamed in
// degree-descending order of the subgraph, ties by id, as
// Relabel(DegreePerm(sub)) would rename them; origID[new] is the vertex
// id in g. It is built in one pass, without the intermediate subgraph: a
// count pass gives each kept vertex's degree in the subgraph, a stable
// counting sort the order, and each row is written once through it and
// sorted.
func (g *Graph) InducedArcsByDegree(keep []bool) (*Graph, []int32) {
	n := g.NumVertices()
	deg := make([]int32, n)
	par.ForChunked(n, 0, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			if keep[v] {
				var d int32
				for _, w := range g.Neighbors(int32(v)) {
					if keep[w] {
						d++
					}
				}
				deg[v] = d
			}
		}
	})
	// DegreePerm's counting sort over the kept vertices: next[d] starts
	// at the number of kept vertices of degree > d. A vertex's degree in
	// the subgraph is at most its degree in g.
	next := make([]int32, g.MaxDegree()+1)
	var m int32
	for v, d := range deg {
		if keep[v] {
			next[d]++
			m++
		}
	}
	var sum int32
	for d := len(next) - 1; d >= 0; d-- {
		next[d], sum = sum, sum+next[d]
	}
	newID := make([]int32, n)
	origID := make([]int32, m)
	for v, d := range deg {
		if keep[v] {
			newID[v] = next[d]
			origID[next[d]] = int32(v)
			next[d]++
		} else {
			newID[v] = -1
		}
	}
	rowPtr := make([]int64, m+1)
	for c, v := range origID {
		rowPtr[c+1] = rowPtr[c] + int64(deg[v])
	}
	adj := make([]int32, rowPtr[m])
	par.ForChunked(int(m), 0, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			row := adj[rowPtr[c]:rowPtr[c]:rowPtr[c+1]]
			for _, w := range g.Neighbors(origID[c]) {
				if nw := newID[w]; nw >= 0 {
					row = append(row, nw)
				}
			}
			slices.Sort(row)
		}
	})
	return &Graph{rowPtr: rowPtr, adj: adj, directed: g.directed}, origID
}

func (g *Graph) induced(keep []bool, keepWeights, collapse bool) (*Graph, []int32) {
	n := g.NumVertices()
	newID := make([]int32, n)
	origID := make([]int32, 0)
	var m int32
	for v := 0; v < n; v++ {
		if keep[v] {
			newID[v] = m
			origID = append(origID, int32(v))
			m++
		} else {
			newID[v] = -1
		}
	}
	sub := g.filterRows(origID, func(_, w int32) int32 { return newID[w] }, keepWeights, collapse)
	sub.directed = g.directed
	return sub, origID
}

// filterRows builds the graph whose row r is g's row rows[r] mapped
// through to, which drops an arc by returning -1 and must be increasing on
// the arcs it keeps (a dense renaming of a kept set is), so mapped rows are
// sorted as written; with collapse, repeats collapse to their first
// instance (and its weight, when keepWeights). One parallel pass counts
// each row, a second writes it: no edge list, no sort.
func (g *Graph) filterRows(rows []int32, to func(v, w int32) int32, keepWeights, collapse bool) *Graph {
	n := len(rows)
	rowPtr := make([]int64, n+1)
	var adj, wts []int32
	walk := func(fill bool) {
		par.ForChunked(n, 0, func(lo, hi int) {
			for r := lo; r < hi; r++ {
				v, p, last := rows[r], int64(0), int32(-1)
				if fill {
					p = rowPtr[r]
				}
				for i, w := range g.Neighbors(v) {
					if w = to(v, w); w < 0 || collapse && w == last {
						continue
					}
					if fill {
						adj[p] = w
						if wts != nil {
							wts[p] = g.weights[g.rowPtr[v]+int64(i)]
						}
					}
					p, last = p+1, w
				}
				if !fill {
					rowPtr[r+1] = p
				}
			}
		})
	}
	walk(false)
	for r := 0; r < n; r++ {
		rowPtr[r+1] += rowPtr[r]
	}
	adj = make([]int32, rowPtr[n])
	if keepWeights && g.weights != nil {
		wts = make([]int32, rowPtr[n])
	}
	walk(true)
	return &Graph{rowPtr: rowPtr, adj: adj, weights: wts}
}

// InducedByColor extracts the subgraph of vertices whose color matches c.
func (g *Graph) InducedByColor(colors []int32, c int32) (*Graph, []int32) {
	keep := make([]bool, g.NumVertices())
	par.For(len(keep), func(v int) { keep[v] = colors[v] == c })
	return g.Induced(keep)
}

// ReciprocalCore keeps only mutual arcs of a directed graph — vertex pairs
// that referred to one another — returning the undirected graph of those
// pairs over the same vertex set. This is the paper's subcommunity
// ("conversation") filter; self loops never count as reciprocal.
func (g *Graph) ReciprocalCore() *Graph {
	rows := make([]int32, g.NumVertices())
	for v := range rows {
		rows[v] = int32(v)
	}
	return g.filterRows(rows, func(v, w int32) int32 {
		if w != v && g.HasEdge(w, v) {
			return w
		}
		return -1
	}, false, true)
}

// DropIsolated removes vertices with no incident arcs in either direction,
// returning the compacted graph and the original ids of the survivors.
func (g *Graph) DropIsolated() (*Graph, []int32) {
	keep := make([]bool, g.NumVertices())
	par.For(len(keep), func(v int) { keep[v] = g.Degree(int32(v)) > 0 })
	if g.directed {
		// A vertex mentioned but never mentioning (pure broadcast hub)
		// has out-degree 0 yet is not isolated.
		for v := 0; v < g.NumVertices(); v++ {
			for _, w := range g.Neighbors(int32(v)) {
				keep[w] = true
			}
		}
	}
	return g.Induced(keep)
}
