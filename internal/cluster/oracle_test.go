package cluster

import (
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

// The differential suite lives in the external test package — it compares
// against internal/stream, which imports this package — and reaches the
// two references through these names.
var (
	OracleTriangles = oracleTriangles
	BruteTriangles  = bruteTriangles
)
