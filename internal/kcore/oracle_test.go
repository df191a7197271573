package kcore

// The round-scan peeling Decompose shipped before the O(n + m) kernel,
// kept verbatim — renamed — as the differential oracle for
// oracle_equiv_test.go and FuzzDecompose.

import (
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
