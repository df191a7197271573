// Package kcore implements GraphCT's k-core extraction kernel: iterative
// parallel peeling of vertices below the degree threshold until a fixed
// point, yielding both the core number of every vertex and induced k-core
// subgraphs.
package kcore

import (
	"sync/atomic"

	"graphct/internal/graph"
	"graphct/internal/par"
)

// Decompose returns core[v], the largest k such that v belongs to the
// k-core of g (the maximal subgraph where every vertex has degree >= k).
// Isolated vertices have core number 0. Directed graphs are decomposed on
// their undirected projection.
func Decompose(g *graph.Graph) []int32 {
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

// MaxCore returns the degeneracy of g: the largest k with a non-empty
// k-core.
func MaxCore(g *graph.Graph) int32 {
	var max int32
	for _, c := range Decompose(g) {
		if c > max {
			max = c
		}
	}
	return max
}

// Extract returns the induced subgraph of vertices with core number >= k
// together with their original ids — GraphCT's "extracting k-cores" kernel.
func Extract(g *graph.Graph, k int32) (*graph.Graph, []int32) {
	core := Decompose(g)
	keep := make([]bool, g.NumVertices())
	par.For(len(keep), func(v int) { keep[v] = core[v] >= k })
	return g.Induced(keep)
}
