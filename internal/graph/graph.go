// Package graph provides GraphCT's common graph data structure: a static
// compressed-sparse-row (CSR) graph shared by every analysis kernel. The
// number of vertices and edges is fixed at ingest; kernels never mutate the
// structure, so it is safe for concurrent reads from many goroutines.
package graph

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"graphct/internal/par"
)

// Graph is a static graph in compressed sparse row format. For a directed
// graph Adj holds the out-neighbors of each vertex; for an undirected graph
// every edge {u,v} appears in both adjacency lists. Adjacency lists are
// sorted ascending, which kernels exploit (e.g. clustering-coefficient
// intersection).
type Graph struct {
	rowPtr   []int64 // len = NumVertices()+1; rowPtr[v]..rowPtr[v+1] index Adj
	adj      []int32 // concatenated sorted adjacency lists
	weights  []int32 // optional, aligned with adj; nil when unweighted
	directed bool

	// undirectedOnce memoizes Undirected(): a directed graph is
	// symmetrized at most once per Graph lifetime, no matter how many
	// kernels (or concurrent server requests) ask for the undirected
	// view. Graphs are immutable after construction, so the memo can
	// never go stale.
	undirectedOnce   sync.Once
	undirected       *Graph
	undirectedBuilds atomic.Int32

	// edgesOnce memoizes NumEdges the same way: every GET /graphs and
	// /stats asks for it. IncrementalCSR fills it at construction.
	edgesOnce sync.Once
	edges     int64
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.rowPtr) - 1 }

// NumArcs returns the number of stored arcs (directed edges). For an
// undirected graph each edge contributes two arcs.
func (g *Graph) NumArcs() int64 { return g.rowPtr[len(g.rowPtr)-1] }

// NumEdges returns the number of logical edges: arcs for a directed graph,
// arcs/2 (plus any self loops counted once) for an undirected graph. The
// first call finds each vertex's loops by binary search in its own sorted
// row, in parallel — O(n log d), not a walk over every arc — and later
// calls return the memoized count.
func (g *Graph) NumEdges() int64 {
	g.edgesOnce.Do(func() {
		if g.directed {
			g.edges = g.NumArcs()
			return
		}
		loops := par.ReduceSum(g.NumVertices(), func(v int) int64 { return g.selfLoops(int32(v)) })
		g.edges = (g.NumArcs()-loops)/2 + loops
	})
	return g.edges
}

// selfLoops counts the v->v arcs in row v (more than one on a multigraph).
func (g *Graph) selfLoops(v int32) int64 {
	row := g.Neighbors(v)
	lo, _ := slices.BinarySearch(row, v)
	hi, _ := slices.BinarySearch(row, v+1)
	return int64(hi - lo)
}

// Directed reports whether the graph stores directed arcs.
func (g *Graph) Directed() bool { return g.directed }

// Degree returns the out-degree of v (degree for undirected graphs).
func (g *Graph) Degree(v int32) int {
	return int(g.rowPtr[v+1] - g.rowPtr[v])
}

// Neighbors returns the sorted adjacency slice of v. It aliases the
// graph's storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.adj[g.rowPtr[v]:g.rowPtr[v+1]]
}

// Weights returns the edge-weight slice aligned with Neighbors(v), or nil if
// the graph is unweighted.
func (g *Graph) Weights(v int32) []int32 {
	if g.weights == nil {
		return nil
	}
	return g.weights[g.rowPtr[v]:g.rowPtr[v+1]]
}

// Weighted reports whether per-edge weights are stored.
func (g *Graph) Weighted() bool { return g.weights != nil }

// HasEdge reports whether the arc u->v is present, by binary search on the
// sorted adjacency list of u.
func (g *Graph) HasEdge(u, v int32) bool {
	_, found := slices.BinarySearch(g.Neighbors(u), v)
	return found
}

// RowPtr exposes the CSR offset array for serialization. Callers must treat
// it as read-only.
func (g *Graph) RowPtr() []int64 { return g.rowPtr }

// AdjArray exposes the CSR adjacency array for serialization. Callers must
// treat it as read-only.
func (g *Graph) AdjArray() []int32 { return g.adj }

// WeightArray exposes the CSR weight array (nil when unweighted) for
// serialization. Callers must treat it as read-only.
func (g *Graph) WeightArray() []int32 { return g.weights }

// FromCSR constructs a Graph directly from CSR arrays, validating them. It
// is used by the binary loader; most callers should use FromEdges.
func FromCSR(rowPtr []int64, adj []int32, weights []int32, directed bool) (*Graph, error) {
	g := &Graph{rowPtr: rowPtr, adj: adj, weights: weights, directed: directed}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// Validate checks the CSR invariants: monotone offsets covering adj exactly,
// in-range sorted neighbor ids, aligned weights, and symmetry for undirected
// graphs (spot-checked exhaustively; the structure is small relative to the
// cost of a broken kernel run).
func (g *Graph) Validate() error {
	if len(g.rowPtr) == 0 {
		return fmt.Errorf("graph: empty rowPtr")
	}
	if g.rowPtr[0] != 0 {
		return fmt.Errorf("graph: rowPtr[0] = %d, want 0", g.rowPtr[0])
	}
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if g.rowPtr[v+1] < g.rowPtr[v] {
			return fmt.Errorf("graph: rowPtr not monotone at vertex %d", v)
		}
	}
	if g.rowPtr[n] != int64(len(g.adj)) {
		return fmt.Errorf("graph: rowPtr[n] = %d, want %d", g.rowPtr[n], len(g.adj))
	}
	if g.weights != nil && len(g.weights) != len(g.adj) {
		return fmt.Errorf("graph: %d weights for %d arcs", len(g.weights), len(g.adj))
	}
	for v := 0; v < n; v++ {
		row := g.Neighbors(int32(v))
		for i, w := range row {
			if w < 0 || int(w) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, w)
			}
			if i > 0 && row[i-1] > w {
				return fmt.Errorf("graph: adjacency of vertex %d not sorted", v)
			}
		}
	}
	if !g.directed {
		for v := 0; v < n; v++ {
			for _, w := range g.Neighbors(int32(v)) {
				if !g.HasEdge(w, int32(v)) {
					return fmt.Errorf("graph: undirected edge %d-%d missing reverse arc", v, w)
				}
			}
		}
	}
	return nil
}

// MaxDegree returns the largest degree in the graph (0 for empty graphs).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(int32(v)); d > max {
			max = d
		}
	}
	return max
}

// MemoryFootprint returns the bytes held by the CSR arrays — the paper
// tracks this closely ("requiring only around 30 MiB of memory in our
// naive storage format"; "at least 7 GiB for the basic graph connectivity
// data" at scale 29).
func (g *Graph) MemoryFootprint() int64 {
	bytes := int64(len(g.rowPtr)) * 8
	bytes += int64(len(g.adj)) * 4
	bytes += int64(len(g.weights)) * 4
	return bytes
}

// String summarizes the graph for logs.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	return fmt.Sprintf("%s graph: %d vertices, %d edges", kind, g.NumVertices(), g.NumEdges())
}
