package graph

import (
	"fmt"

	"graphct/internal/par"
)

// IncrementalCSR materializes an undirected CSR graph from a dynamic
// adjacency structure, reusing the previous snapshot's contents for
// vertices that have not changed since it was taken.
//
// deg[v] must be the current degree of every vertex. For vertices with
// dirty[v] == false the adjacency run is copied verbatim from prev (their
// degree must be unchanged); dirty vertices are filled by fill(v, dst),
// which writes exactly deg[v] neighbor ids into dst in ascending order,
// none equal to v. Nothing is sorted here: a row filled out of order
// yields a graph Validate rejects. Because rows hold no self loops, the
// edge count is half the arcs and is recorded at construction. A nil prev
// (or nil dirty) rebuilds every vertex.
//
// The previous snapshot's arrays are never written: prior epochs stay
// immutable because in-flight readers (kernel requests resolved against an
// older registry entry) may still be traversing them. "Incremental" here
// means fill — the caller's walk over its dynamic structure — runs only
// for vertices an update actually touched; clean runs are block copies.
func IncrementalCSR(prev *Graph, n int, deg []int64, dirty []bool, fill func(v int32, dst []int32)) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	if len(deg) != n {
		return nil, fmt.Errorf("graph: %d degrees for %d vertices", len(deg), n)
	}
	reuse := prev != nil && dirty != nil && prev.NumVertices() == n
	rowPtr := make([]int64, n+1)
	var sum int64
	for v := 0; v < n; v++ {
		if deg[v] < 0 {
			return nil, fmt.Errorf("graph: negative degree %d at vertex %d", deg[v], v)
		}
		if reuse && !dirty[v] && deg[v] != int64(prev.Degree(int32(v))) {
			return nil, fmt.Errorf("graph: clean vertex %d changed degree %d -> %d", v, prev.Degree(int32(v)), deg[v])
		}
		rowPtr[v] = sum
		sum += deg[v]
	}
	rowPtr[n] = sum
	adj := make([]int32, sum)
	par.For(n, func(v int) {
		dst := adj[rowPtr[v]:rowPtr[v+1]]
		if reuse && !dirty[v] {
			copy(dst, prev.Neighbors(int32(v)))
			return
		}
		fill(int32(v), dst)
	})
	g := &Graph{rowPtr: rowPtr, adj: adj, directed: false}
	g.edgesOnce.Do(func() { g.edges = sum / 2 })
	return g, nil
}
