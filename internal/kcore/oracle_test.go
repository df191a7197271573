package kcore

// The round-scan peeling Decompose shipped before the O(n + m) kernel,
// kept verbatim — renamed — as the differential oracle for
// equiv_test.go and FuzzDecompose; and Size, the per-k count the server
// ran before NewProfile, kept as the reference for the profile.

import (
	"slices"
	"sync/atomic"

	"graphct/internal/graph"
	"graphct/internal/par"
)

// oracleDecompose returns core[v], the largest k such that v belongs to the
// k-core of g (the maximal subgraph where every vertex has degree >= k).
// Isolated vertices have core number 0. Directed graphs are decomposed on
// their undirected projection.
func oracleDecompose(g *graph.Graph) []int32 {
	if g.Directed() {
		g = g.Undirected()
	}
	n := g.NumVertices()
	deg := make([]int32, n)
	core := make([]int32, n)
	alive := make([]bool, n)
	par.For(n, func(v int) {
		deg[v] = int32(g.Degree(int32(v)))
		alive[v] = true
	})
	remaining := n
	for k := int32(0); remaining > 0; k++ {
		// Peel everything of degree <= k at this level; repeat until no
		// vertex at this level remains, then raise k.
		for {
			var peel []int32
			for v := 0; v < n; v++ {
				if alive[v] && deg[v] <= k {
					peel = append(peel, int32(v))
				}
			}
			if len(peel) == 0 {
				break
			}
			par.For(len(peel), func(i int) {
				v := peel[i]
				alive[v] = false
				core[v] = k
			})
			remaining -= len(peel)
			par.For(len(peel), func(i int) {
				for _, w := range g.Neighbors(peel[i]) {
					if alive[w] {
						atomic.AddInt32(&deg[w], -1)
					}
				}
			})
		}
	}
	return core
}

// Size returns the vertex and edge counts Extract(g, k) would report —
// NumVertices and NumEdges of the k-core it builds — without building it.
// core is Decompose(g). As in Induced, repeated arcs count once; as in
// NumEdges, a directed g counts its arcs and an undirected one its edges
// with a self loop counted once.
func Size(g *graph.Graph, core []int32, k int32) (vertices int, edges int64) {
	vertices = int(par.Count(len(core), func(v int) bool { return core[v] >= k }))
	edges = par.ReduceSum(len(core), func(v int) int64 {
		if core[v] < k {
			return 0
		}
		row := g.Neighbors(int32(v))
		if !g.Directed() {
			// Each undirected edge {v, w} is counted from its lower end,
			// a self loop from its own row.
			lo, _ := slices.BinarySearch(row, int32(v))
			row = row[lo:]
		}
		var kept int64
		last := int32(-1)
		for _, w := range row {
			if w != last && core[w] >= k {
				kept++
			}
			last = w
		}
		return kept
	})
	return vertices, edges
}
