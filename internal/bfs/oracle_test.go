package bfs

import (
	"sync/atomic"

	"graphct/internal/graph"
	"graphct/internal/par"
)

// oracleSearch is the search this package shipped before the
// direction-optimizing engine: top-down only, every level fanned out over
// all workers, one compare-and-swap per arc head, rows read through
// Neighbors. It shares no code with the engine and is kept as the
// reference the differential tests compare against.
func oracleSearch(g *graph.Graph, src int32, maxDepth int) *Result {
	n := g.NumVertices()
	r := &Result{Source: src, Level: make([]int32, n), Parent: make([]int32, n)}
	fill(r.Level)
	fill(r.Parent)
	if src < 0 || int(src) >= n {
		return r
	}
	r.Level[src] = 0
	r.Parent[src] = src
	frontier := []int32{src}
	r.Order = append(r.Order, src)
	depth := int32(0)
	for len(frontier) > 0 && (maxDepth < 0 || int(depth) < maxDepth) {
		next := oracleExpand(g, frontier, r.Level, r.Parent, depth+1)
		if len(next) == 0 {
			break
		}
		depth++
		r.Order = append(r.Order, next...)
		frontier = next
	}
	r.Depth = int(depth)
	return r
}

func oracleExpand(g *graph.Graph, frontier []int32, level, parent []int32, d int32) []int32 {
	workers := par.Workers()
	buffers := make([][]int32, workers)
	var cursor atomic.Int64
	const chunk = 64
	par.ForWorkers(workers, func(w, _ int) {
		var buf []int32
		for {
			lo := int(cursor.Add(chunk)) - chunk
			if lo >= len(frontier) {
				break
			}
			for _, u := range frontier[lo:min(lo+chunk, len(frontier))] {
				for _, v := range g.Neighbors(u) {
					if atomic.LoadInt32(&level[v]) == Unreached && atomic.CompareAndSwapInt32(&level[v], Unreached, d) {
						atomic.StoreInt32(&parent[v], u)
						buf = append(buf, v)
					}
				}
			}
		}
		buffers[w] = buf
	})
	var next []int32
	for _, b := range buffers {
		next = append(next, b...)
	}
	return next
}
