// Package cluster computes per-vertex clustering coefficients, one of
// GraphCT's top-level kernels, with the forward (degree-oriented) triangle
// algorithm.
//
// Every call first builds the oriented adjacency: vertices are ranked by
// (stored row length, id) and each vertex keeps only its neighbours of
// higher rank, rows still sorted by id. A triangle then has exactly one
// corner whose oriented row holds the other two, so intersecting out[v]
// with out[w] for each w in out[v] finds every triangle once — not six
// times, as merging full rows per arc does. The intersection is by marks:
// a worker sets one bit per element of out[v] in its own bitmap, tests one
// bit per element of each out[w], and clears the words it set before the
// next v. Orientation is also what tames the heavy-tailed degrees of
// social graphs: a hub outranks nearly all its neighbours, so its oriented
// row is short; dynamic chunking only evens out what skew is left.
//
// The kernel is defined on the simple undirected graph under its input:
// directed graphs are projected first, and the orientation pass drops self
// loops and repeated arcs, so a KeepDuplicates multigraph gets the
// triangles, degrees and coefficients of its simple graph, the graph
// stream.FromGraph seeds a live stream with. Counts are integers and
// do not depend on the worker count, the vertex numbering or the adjacency
// encoding.
//
// Transient memory per call is the oriented adjacency (4 bytes per
// undirected edge plus 8·(n+1) of offsets, and as much again in the
// workers' buffers until it is copied into place), 4·n of simple degrees
// and an n/8-byte bitmap per worker. Triangles and Coefficients add one
// 8·n stripe of corner credits per worker; Global needs only the total,
// so each worker keeps one running sum. The orientation pass is about an
// eighth to a fifth of the kernel on the R-MAT pipeline graphs and two
// fifths on the tweet mention graph (DESIGN §6.4).
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
	// One walk: workers claim chunks of vertices and append each chunk's
	// rows to their own buffer, noting where; the copy into out waits for
	// the offsets. A worker's buffer is sized for an even share of the
	// oriented arcs (at most half the arcs) and grows only past it.
	const chunk = 256
	chunks := (n + chunk - 1) / chunk
	deg = make([]int32, n)
	off = make([]int64, n+1)
	owner := make([]int32, chunks) // worker whose buffer holds the chunk's rows
	at := make([]int64, chunks)    // where they start in it
	workers := min(par.Workers(), max(1, chunks))
	bufs := make([][]int32, workers)
	var next atomic.Int64
	par.ForWorkers(workers, func(worker, _ int) {
		buf := make([]int32, 0, g.NumArcs()/int64(2*workers)+chunk)
		for {
			c := int(next.Add(1)) - 1
			if c >= chunks {
				break
			}
			owner[c], at[c] = int32(worker), int64(len(buf))
			for v := c * chunk; v < min(c*chunk+chunk, n); v++ {
				start := len(buf)
				buf, deg[v] = appendHigher(buf, int32(v))
				off[v+1] = int64(len(buf) - start)
			}
		}
		bufs[worker] = buf
	})
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	out = make([]int32, off[n])
	par.For(chunks, func(c int) {
		lo, hi := off[c*chunk], off[min(c*chunk+chunk, n)]
		copy(out[lo:hi], bufs[owner[c]][at[c]:])
	})
	return off, out, deg
}

// forward counts the triangles of the simple undirected graph under g and
// returns their total with each vertex's simple degree. With corners set
// it also returns tri[v], the number of triangles on v; without, tri is
// nil and no n-length stripe is allocated.
func forward(g *graph.Graph, corners bool) (tri []int64, total int64, deg []int32) {
	if g.Directed() {
		g = g.Undirected()
	}
	n := g.NumVertices()
	off, out, deg := orient(g)

	// A triangle is found from its lowest-ranked corner v through its
	// middle corner w, the third corner x being an element of out[w] whose
	// bit out[v] set in the worker's bitmap. With corners, each triangle is
	// credited to all three in the worker's private stripe. Workers claim
	// few vertices at a time, so the long oriented rows a skewed graph
	// still has spread over them.
	const chunk = 64
	workers := par.Workers()
	var stripes [][]int64
	if corners {
		stripes = make([][]int64, workers)
	}
	var next, sum atomic.Int64
	par.ForWorkers(workers, func(worker, _ int) {
		mark := make([]uint64, (n+63)/64)
		var t []int64
		if corners {
			t = make([]int64, n)
			stripes[worker] = t
		}
		var found int64
		for {
			lo := int(next.Add(chunk)) - chunk
			if lo >= n {
				break
			}
			for v := lo; v < min(lo+chunk, n); v++ {
				a := out[off[v]:off[v+1]]
				if len(a) < 2 {
					continue
				}
				for _, x := range a {
					mark[uint32(x)>>6] |= 1 << (uint32(x) & 63)
				}
				for _, w := range a {
					b := out[off[w]:off[w+1]]
					if t == nil {
						// Count only: adding the bit, not branching on
						// it, measured faster for Global.
						for _, x := range b {
							found += int64(mark[uint32(x)>>6] >> (uint32(x) & 63) & 1)
						}
						continue
					}
					var fw int64
					for _, x := range b {
						if mark[uint32(x)>>6]&(1<<(uint32(x)&63)) != 0 {
							t[x]++
							fw++
						}
					}
					t[v] += fw
					t[w] += fw
					found += fw
				}
				for _, x := range a {
					mark[uint32(x)>>6] = 0
				}
			}
		}
		sum.Add(found)
	})
	if corners {
		tri = stripes[0]
		par.SumSlices(tri, stripes[1:])
	}
	return tri, sum.Load(), deg
}

// Triangles returns tri[v], the number of triangles incident on v.
// Directed graphs are projected to undirected first; self loops and
// repeated arcs never form triangles.
func Triangles(g *graph.Graph) []int64 {
	tri, _, _ := forward(g, true)
	return tri
}

// Coefficients returns the local clustering coefficient of every vertex:
// the fraction of a vertex's neighbor pairs that are themselves connected.
// Vertices of degree < 2 get coefficient 0.
func Coefficients(g *graph.Graph) []float64 {
	tri, _, deg := forward(g, true)
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
	_, triangles, deg := forward(g, false)
	var wedges int64
	for _, d32 := range deg {
		d := int64(d32)
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return float64(3*triangles) / float64(wedges)
}
