// Package cluster computes per-vertex clustering coefficients, one of
// GraphCT's top-level kernels, with the forward (degree-oriented) triangle
// algorithm.
//
// Every call first builds the oriented adjacency: vertices are ranked by
// (stored row length, id) and each vertex keeps only its neighbours of
// higher rank, rows still sorted by id. A triangle then has exactly one
// corner whose oriented row holds the other two, so intersecting out[v]
// with out[w] for each w in out[v] finds every triangle once — not six
// times, as merging full rows per arc does — and credits its three
// corners. Orientation is also what tames the heavy-tailed degrees of
// social graphs: a hub outranks nearly all its neighbours, so its oriented
// row is short; dynamic chunking only evens out what skew is left.
//
// The kernel is defined on the simple undirected graph under its input:
// directed graphs are projected first, and the orientation pass drops self
// loops and repeated arcs, so a KeepDuplicates multigraph gets the
// triangles, degrees and coefficients of its simple graph — the values
// stream.FromGraph maintains for the same input. Counts are integers and
// do not depend on the worker count, the vertex numbering or the adjacency
// encoding.
//
// Transient memory per call is the oriented adjacency (4 bytes per
// undirected edge plus 8·(n+1) of offsets), 4·n of simple degrees and one
// 8·n stripe of corner credits per worker. There is no fast path that
// orients a degree-reordered graph in place: the build is ~7 % of the
// kernel on the scale-16 R-MAT pipeline graph.
package cluster

import (
	"sync/atomic"

	"graphct/internal/graph"
	"graphct/internal/par"
)

// orient builds the oriented adjacency of the simple undirected graph
// under g (which must be undirected): out[off[v]:off[v+1]] holds v's
// distinct non-self neighbours of higher rank, ascending by id. It also
// returns each vertex's simple degree, the denominator of every
// coefficient. Rank is (stored row length, id) — any total order is
// correct, and this one needs no pass of its own.
func orient(g *graph.Graph) (off []int64, out []int32, deg []int32) {
	n := g.NumVertices()
	// appendHigher appends v's oriented row to dst and returns it with v's
	// simple degree. Rows are sorted, so repeated arcs are adjacent.
	appendHigher := func(dst []int32, v int32) ([]int32, int32) {
		dv, prev, d := g.Degree(v), int32(-1), int32(0)
		for _, w := range g.Neighbors(v) {
			if w == prev || w == v {
				continue
			}
			prev = w
			d++
			if dw := g.Degree(w); dw > dv || dw == dv && w > v {
				dst = append(dst, w)
			}
		}
		return dst, d
	}
	deg = make([]int32, n)
	off = make([]int64, n+1)
	par.ForChunked(n, 256, func(lo, hi int) {
		var row []int32
		for v := lo; v < hi; v++ {
			row, deg[v] = appendHigher(row[:0], int32(v))
			off[v+1] = int64(len(row))
		}
	})
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	out = make([]int32, off[n])
	par.ForChunked(n, 256, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			appendHigher(out[off[v]:off[v]:off[v+1]], int32(v))
		}
	})
	return off, out, deg
}

// forward counts triangles per vertex on the simple undirected graph under
// g and returns them with each vertex's simple degree.
func forward(g *graph.Graph) (tri []int64, deg []int32) {
	if g.Directed() {
		g = g.Undirected()
	}
	n := g.NumVertices()
	off, out, deg := orient(g)

	// A triangle is found from its lowest-ranked corner v through its
	// middle corner w, the third corner x being the common element, and
	// credited to all three in the worker's private stripe.
	// Workers claim few vertices at a time, so the long oriented rows a
	// skewed graph still has spread over them.
	const chunk = 64
	workers := par.Workers()
	stripes := make([][]int64, workers)
	var next atomic.Int64
	par.ForWorkers(workers, func(worker, _ int) {
		t := make([]int64, n)
		stripes[worker] = t
		for {
			lo := int(next.Add(chunk)) - chunk
			if lo >= n {
				return
			}
			for v := lo; v < min(lo+chunk, n); v++ {
				a := out[off[v]:off[v+1]]
				for _, w := range a {
					b := out[off[w]:off[w+1]]
					var found int64
					for i, j := 0, 0; i < len(a) && j < len(b); {
						switch x, y := a[i], b[j]; {
						case x < y:
							i++
						case x > y:
							j++
						default:
							t[x]++
							found++
							i++
							j++
						}
					}
					t[v] += found
					t[w] += found
				}
			}
		}
	})
	tri = stripes[0]
	par.SumSlices(tri, stripes[1:])
	return tri, deg
}

// Triangles returns tri[v], the number of triangles incident on v.
// Directed graphs are projected to undirected first; self loops and
// repeated arcs never form triangles.
func Triangles(g *graph.Graph) []int64 {
	tri, _ := forward(g)
	return tri
}

// Coefficients returns the local clustering coefficient of every vertex:
// the fraction of a vertex's neighbor pairs that are themselves connected.
// Vertices of degree < 2 get coefficient 0.
func Coefficients(g *graph.Graph) []float64 {
	tri, deg := forward(g)
	coef := make([]float64, len(tri))
	for v, d32 := range deg {
		if d := int64(d32); d >= 2 {
			coef[v] = 2 * float64(tri[v]) / float64(d*(d-1))
		}
	}
	return coef
}

// Global returns the global clustering coefficient (transitivity):
// 3 x triangles / wedges.
func Global(g *graph.Graph) float64 {
	tri, deg := forward(g)
	var closed, wedges int64
	for v, d32 := range deg {
		closed += tri[v]
		d := int64(d32)
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return float64(closed) / float64(wedges)
}
