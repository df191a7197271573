package cluster

import (
	"sync/atomic"

	"graphct/internal/graph"
	"graphct/internal/par"
)

// oracleTriangles is the kernel this package shipped before the forward
// algorithm, kept verbatim as the differential oracle: for every arc
// (v,w) it merges the full sorted rows of v and w, so each triangle is
// found six times. It is defined on simple graphs only — a duplicated arc
// is walked twice — so callers hand it duplicate-free input.
func oracleTriangles(g *graph.Graph) []int64 {
	if g.Directed() {
		g = g.Undirected()
	}
	n := g.NumVertices()
	tri := make([]int64, n)
	par.ForChunked(n, 64, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			nv := g.Neighbors(int32(v))
			var count int64
			for _, w := range nv {
				if w == int32(v) {
					continue
				}
				count += oracleIntersectCount(nv, g.Neighbors(w), int32(v), w)
			}
			// Each triangle {v,a,b} is found twice from v (via a and b).
			tri[v] = count / 2
		}
	})
	return tri
}

// oracleIntersectCount counts common neighbors of v and w, excluding v and
// w themselves, by merging the two sorted lists.
func oracleIntersectCount(a, b []int32, v, w int32) int64 {
	var count int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if a[i] != v && a[i] != w {
				count++
			}
			i++
			j++
		}
	}
	return count
}

// mergeForward is the forward kernel this package shipped before marked
// intersection, kept verbatim as the second differential oracle: same
// orientation, but each triangle is found by a two-pointer merge of out[v]
// with out[w]. It counts triangles per vertex on the simple undirected
// graph under g and returns them with each vertex's simple degree.
func mergeForward(g *graph.Graph) (tri []int64, deg []int32) {
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

// The differential suite lives in the external test package, calling the
// kernels through the exported API, and reaches the references through
// these names.
var (
	OracleTriangles = oracleTriangles
	BruteTriangles  = bruteTriangles
	MergeForward    = mergeForward
)
