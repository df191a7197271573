package graph

// The builders this package shipped before the one CSR constructor (see
// build), kept verbatim — renamed, and with Undirected's memo dropped — as
// the differential oracle for builder_test.go, the way PRs 15, 16 and 19
// retired their kernels.

import (
	"fmt"
	"sort"
	"sync/atomic"

	"graphct/internal/par"
)

// oracleFromEdges is the retired FromEdges. It ingests an edge list into a
// CSR graph with n vertices. Vertex ids must lie in [0, n); n may exceed the
// largest referenced id to include isolated vertices. The input slice may be
// reordered.
func oracleFromEdges(n int, edges []Edge, opt Options) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
	}
	if !opt.KeepSelfLoops {
		edges = oracleFilterSelfLoops(edges)
	}
	if !opt.KeepDuplicates {
		edges = oracleDedupEdges(edges, !opt.Directed)
	}
	g := oracleScatter(n, edges, nil, opt.Directed)
	return g, nil
}

// oracleFromWeightedEdges is the retired FromWeightedEdges. It ingests a
// weighted edge list. Duplicate handling keeps the first instance of each
// arc after sorting.
func oracleFromWeightedEdges(n int, edges []WeightedEdge, opt Options) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
	}
	if !opt.KeepSelfLoops {
		out := edges[:0]
		for _, e := range edges {
			if e.U != e.V {
				out = append(out, e)
			}
		}
		edges = out
	}
	if !opt.KeepDuplicates {
		if !opt.Directed {
			for i, e := range edges {
				if e.U > e.V {
					edges[i].U, edges[i].V = e.V, e.U
				}
			}
		}
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].U != edges[j].U {
				return edges[i].U < edges[j].U
			}
			return edges[i].V < edges[j].V
		})
		out := edges[:0]
		for i, e := range edges {
			if i == 0 || e.U != edges[i-1].U || e.V != edges[i-1].V {
				out = append(out, e)
			}
		}
		edges = out
	}
	plain := make([]Edge, len(edges))
	weights := make([]int32, len(edges))
	for i, e := range edges {
		plain[i] = Edge{e.U, e.V}
		weights[i] = e.W
	}
	return oracleScatter(n, plain, weights, opt.Directed), nil
}

// oracleScatter builds the CSR arrays from a cleaned edge list: parallel
// degree histogram via atomic fetch-and-add, exclusive prefix sum, parallel
// scatter claiming slots with fetch-and-add, then a parallel per-vertex
// sort. This is the XMT ingest pattern on goroutines.
func oracleScatter(n int, edges []Edge, weights []int32, directed bool) *Graph {
	deg := make([]int64, n)
	par.For(len(edges), func(i int) {
		e := edges[i]
		atomic.AddInt64(&deg[e.U], 1)
		if !directed && e.U != e.V {
			atomic.AddInt64(&deg[e.V], 1)
		}
	})
	rowPtr := make([]int64, n+1)
	var sum int64
	for v := 0; v < n; v++ {
		rowPtr[v] = sum
		sum += deg[v]
	}
	rowPtr[n] = sum
	adj := make([]int32, sum)
	var wts []int32
	if weights != nil {
		wts = make([]int32, sum)
	}
	cursor := make([]int64, n)
	copy(cursor, rowPtr[:n])
	par.For(len(edges), func(i int) {
		e := edges[i]
		slot := atomic.AddInt64(&cursor[e.U], 1) - 1
		adj[slot] = e.V
		if wts != nil {
			wts[slot] = weights[i]
		}
		if !directed && e.U != e.V {
			slot = atomic.AddInt64(&cursor[e.V], 1) - 1
			adj[slot] = e.U
			if wts != nil {
				wts[slot] = weights[i]
			}
		}
	})
	g := &Graph{rowPtr: rowPtr, adj: adj, weights: wts, directed: directed}
	par.For(n, func(v int) {
		lo, hi := rowPtr[v], rowPtr[v+1]
		if hi-lo < 2 {
			return
		}
		if wts == nil {
			s := adj[lo:hi]
			sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
			return
		}
		a, w := adj[lo:hi], wts[lo:hi]
		idx := make([]int, len(a))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return a[idx[i]] < a[idx[j]] })
		sa := make([]int32, len(a))
		sw := make([]int32, len(a))
		for i, k := range idx {
			sa[i], sw[i] = a[k], w[k]
		}
		copy(a, sa)
		copy(w, sw)
	})
	return g
}

// oracleDedupEdges is the retired DedupEdges. It sorts the list and removes
// duplicate arcs in place, returning the shortened slice. When undirected is
// true, (u,v) and (v,u) are treated as the same edge ("duplicate user
// interactions are thrown out"). Self loops are kept; callers drop them
// separately if desired.  Large lists are sorted by packing both endpoints
// into one uint64 key and radix sorting in parallel — the ingest-dominated
// workloads the paper describes spend most of their time here.
func oracleDedupEdges(edges []Edge, undirected bool) []Edge {
	if undirected {
		for i := range edges {
			edges[i] = edges[i].canon()
		}
	}
	const radixThreshold = 1 << 14
	if len(edges) >= radixThreshold && oracleNonNegative(edges) {
		keys := make([]uint64, len(edges))
		for i, e := range edges {
			keys[i] = uint64(uint32(e.U))<<32 | uint64(uint32(e.V))
		}
		par.RadixSortUint64(keys, 64)
		for i, k := range keys {
			edges[i] = Edge{U: int32(k >> 32), V: int32(k & 0xFFFFFFFF)}
		}
	} else {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].U != edges[j].U {
				return edges[i].U < edges[j].U
			}
			return edges[i].V < edges[j].V
		})
	}
	out := edges[:0]
	for i, e := range edges {
		if i == 0 || e != edges[i-1] {
			out = append(out, e)
		}
	}
	return out
}

// oracleNonNegative reports whether every endpoint packs order-preserving
// into an unsigned key. Ingest always validates ranges first; the check
// guards direct library callers.
func oracleNonNegative(edges []Edge) bool {
	for _, e := range edges {
		if e.U < 0 || e.V < 0 {
			return false
		}
	}
	return true
}

// oracleNumEdges is the retired NumEdges. It returns the number of logical
// edges: arcs for a directed graph, arcs/2 (plus any self loops counted
// once) for an undirected graph.
func oracleNumEdges(g *Graph) int64 {
	if g.directed {
		return g.NumArcs()
	}
	var loops int64
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(int32(v)) {
			if w == int32(v) {
				loops++
			}
		}
	}
	return (g.NumArcs()-loops)/2 + loops
}

// oracleUndirected is the retired symmetrization inside Undirected (memo
// aside).
func oracleUndirected(g *Graph) *Graph {
	if !g.directed {
		return g
	}
	edges := make([]Edge, 0, g.NumArcs())
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(int32(v)) {
			edges = append(edges, Edge{int32(v), w})
		}
	}
	u, _ := oracleFromEdges(g.NumVertices(), edges, Options{KeepSelfLoops: true})
	return u
}

// oracleInduced is the retired Induced. It extracts the subgraph on the
// vertices with keep[v] == true, relabeling vertices densely. It returns the
// subgraph and origID, where origID[new] is the vertex id in g. Edges with
// either endpoint outside the kept set are dropped. This is GraphCT's
// "extract a subgraph induced by a coloring function".
func oracleInduced(g *Graph, keep []bool) (*Graph, []int32) {
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
	var edges []Edge
	for v := 0; v < n; v++ {
		if !keep[v] {
			continue
		}
		for _, w := range g.Neighbors(int32(v)) {
			if keep[w] && (g.directed || w >= int32(v)) {
				edges = append(edges, Edge{newID[v], newID[w]})
			}
		}
	}
	sub, _ := oracleFromEdges(int(m), edges, Options{Directed: g.directed, KeepSelfLoops: true})
	return sub, origID
}

// oracleReciprocalCore is the retired ReciprocalCore. It keeps only mutual
// arcs of a directed graph — vertex pairs that referred to one another —
// returning the undirected graph of those pairs over the same vertex set.
// This is the paper's subcommunity ("conversation") filter; self loops never
// count as reciprocal.
func oracleReciprocalCore(g *Graph) *Graph {
	n := g.NumVertices()
	buckets := make([][]Edge, n)
	par.For(n, func(v int) {
		var out []Edge
		for _, w := range g.Neighbors(int32(v)) {
			if w > int32(v) && g.HasEdge(w, int32(v)) {
				out = append(out, Edge{int32(v), w})
			}
		}
		buckets[v] = out
	})
	var edges []Edge
	for _, b := range buckets {
		edges = append(edges, b...)
	}
	core, _ := oracleFromEdges(n, edges, Options{})
	return core
}

// oracleDegreePerm is the retired DegreePerm. It returns the degree-
// descending permutation: the highest-degree vertex becomes id 0, ties
// broken by original id for determinism. On scale-free graphs this packs the
// hubs — the destinations of most arcs — into the first cache lines of every
// per-vertex array.
func oracleDegreePerm(g *Graph) []int32 {
	n := g.NumVertices()
	order := make([]int32, n)
	for v := range order {
		order[v] = int32(v)
	}
	sort.SliceStable(order, func(i, j int) bool {
		di, dj := g.Degree(order[i]), g.Degree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	perm := make([]int32, n)
	for rank, v := range order {
		perm[v] = int32(rank)
	}
	return perm
}

// oracleRelabel is the retired Relabel. It returns g with every vertex id v
// renamed to perm[v], plus the inverse permutation (inv[new] = old) for
// mapping results back to the original ids. Adjacency rows are re-sorted
// under the new names and weights follow their arcs, so the result is a
// valid CSR graph whose kernels compute the same function as g up to the
// renaming — the permutation-equivalence property tests quantify this for
// every kernel.
func oracleRelabel(g *Graph, perm []int32) (*Graph, []int32, error) {
	n := g.NumVertices()
	if err := checkPerm(perm, n); err != nil {
		return nil, nil, err
	}
	inv := InversePerm(perm)
	rowPtr := make([]int64, n+1)
	var sum int64
	for nv := 0; nv < n; nv++ {
		rowPtr[nv] = sum
		sum += int64(g.Degree(inv[nv]))
	}
	rowPtr[n] = sum
	adj := make([]int32, sum)
	var wts []int32
	if g.weights != nil {
		wts = make([]int32, sum)
	}
	par.For(n, func(nv int) {
		old := inv[nv]
		src := g.adj[g.rowPtr[old]:g.rowPtr[old+1]]
		dst := adj[rowPtr[nv]:rowPtr[nv+1]]
		for i, w := range src {
			dst[i] = perm[w]
		}
		if wts == nil {
			sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
			return
		}
		// Weighted rows sort ids and weights together so Weights(v) stays
		// aligned with Neighbors(v).
		sw := g.weights[g.rowPtr[old]:g.rowPtr[old+1]]
		dw := wts[rowPtr[nv]:rowPtr[nv+1]]
		idx := make([]int, len(dst))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return dst[idx[i]] < dst[idx[j]] })
		sorted := make([]int32, len(dst))
		sortedW := make([]int32, len(dst))
		for i, k := range idx {
			sorted[i] = dst[k]
			sortedW[i] = sw[k]
		}
		copy(dst, sorted)
		copy(dw, sortedW)
	})
	return &Graph{rowPtr: rowPtr, adj: adj, weights: wts, directed: g.directed}, inv, nil
}

// oracleFilterSelfLoops is the retired FilterSelfLoops. It removes u==v
// arcs in place and returns the shortened slice.
func oracleFilterSelfLoops(edges []Edge) []Edge {
	out := edges[:0]
	for _, e := range edges {
		if e.U != e.V {
			out = append(out, e)
		}
	}
	return out
}

// canon returns the edge with endpoints ordered (u <= v), the canonical form
// for undirected deduplication.
func (e Edge) canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}
