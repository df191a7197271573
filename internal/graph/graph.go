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
	rowPtr   []int64     // len = NumVertices()+1; rowPtr[v]..rowPtr[v+1] index Adj
	adj      []int32     // concatenated sorted adjacency lists; nil when compact
	weights  []int32     // optional, aligned with adj; nil when unweighted
	compact  *compactAdj // delta-varint adjacency (see compact.go); nil when raw
	directed bool

	// undirectedOnce memoizes Undirected(): a directed graph is
	// symmetrized at most once per Graph lifetime, no matter how many
	// kernels (or concurrent server requests) ask for the undirected
	// view. Graphs are immutable after construction, so the memo can
	// never go stale.
	undirectedOnce   sync.Once
	undirected       *Graph
	undirectedBuilds atomic.Int32
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.rowPtr) - 1 }

// NumArcs returns the number of stored arcs (directed edges). For an
// undirected graph each edge contributes two arcs.
func (g *Graph) NumArcs() int64 { return g.rowPtr[len(g.rowPtr)-1] }

// NumEdges returns the number of logical edges: arcs for a directed graph,
// arcs/2 (plus any self loops counted once) for an undirected graph. It
// finds each vertex's loops by binary search in its own sorted row, in
// parallel — O(n log d), not a walk over every arc.
func (g *Graph) NumEdges() int64 {
	if g.directed {
		return g.NumArcs()
	}
	loops := par.ReduceSum(g.NumVertices(), func(v int) int64 { return g.selfLoops(int32(v)) })
	return (g.NumArcs()-loops)/2 + loops
}

// selfLoops counts the v->v arcs in row v (more than one on a multigraph).
func (g *Graph) selfLoops(v int32) (c int64) {
	if g.compact == nil {
		row := g.adj[g.rowPtr[v]:g.rowPtr[v+1]]
		lo, _ := slices.BinarySearch(row, v)
		hi, _ := slices.BinarySearch(row, v+1)
		return int64(hi - lo)
	}
	for it := g.NeighborIter(v); ; {
		w, ok := it.Next()
		if !ok || w > v {
			return c
		}
		if w == v {
			c++
		}
	}
}

// Directed reports whether the graph stores directed arcs.
func (g *Graph) Directed() bool { return g.directed }

// Degree returns the out-degree of v (degree for undirected graphs).
func (g *Graph) Degree(v int32) int {
	return int(g.rowPtr[v+1] - g.rowPtr[v])
}

// Neighbors returns the adjacency slice of v. For a raw graph the slice
// aliases the graph's storage and must not be modified. For a compact graph
// (see Compact) it is decoded into a fresh allocation per call — correct
// everywhere, but hot paths should use NeighborsInto or NeighborIter.
func (g *Graph) Neighbors(v int32) []int32 {
	if g.compact == nil {
		return g.adj[g.rowPtr[v]:g.rowPtr[v+1]]
	}
	deg := g.rowPtr[v+1] - g.rowPtr[v]
	return g.appendRow(make([]int32, 0, deg), v)
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

// HasEdge reports whether the arc u->v is present: binary search on the
// sorted adjacency list of u for raw graphs, an early-exit sequential decode
// for compact ones (the row is sorted, so the scan stops at the first
// neighbor >= v).
func (g *Graph) HasEdge(u, v int32) bool {
	if g.compact == nil {
		_, found := slices.BinarySearch(g.adj[g.rowPtr[u]:g.rowPtr[u+1]], v)
		return found
	}
	for it := g.NeighborIter(u); ; {
		w, ok := it.Next()
		if !ok || w > v {
			return false
		}
		if w == v {
			return true
		}
	}
}

// RowPtr exposes the CSR offset array for serialization. Callers must treat
// it as read-only.
func (g *Graph) RowPtr() []int64 { return g.rowPtr }

// AdjArray exposes the CSR adjacency array for serialization. Callers must
// treat it as read-only. For a compact graph the raw array is materialized
// so on-disk formats stay plain CSR regardless of the in-memory layout.
func (g *Graph) AdjArray() []int32 {
	if g.compact != nil {
		return g.decompressAdj()
	}
	return g.adj
}

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
	if g.compact == nil {
		if g.rowPtr[n] != int64(len(g.adj)) {
			return fmt.Errorf("graph: rowPtr[n] = %d, want %d", g.rowPtr[n], len(g.adj))
		}
		if g.weights != nil && len(g.weights) != len(g.adj) {
			return fmt.Errorf("graph: %d weights for %d arcs", len(g.weights), len(g.adj))
		}
	} else {
		if len(g.compact.offs) != n+1 {
			return fmt.Errorf("graph: compact offsets cover %d vertices, want %d", len(g.compact.offs)-1, n)
		}
		if g.compact.offs[n] != int64(len(g.compact.data)-compactPad) {
			return fmt.Errorf("graph: compact offs[n] = %d, want %d", g.compact.offs[n], len(g.compact.data)-compactPad)
		}
		if g.weights != nil {
			return fmt.Errorf("graph: compact graph with weights (weighted graphs stay raw)")
		}
	}
	for v := 0; v < n; v++ {
		prev := int32(-1)
		i := 0
		for it := g.NeighborIter(int32(v)); ; i++ {
			w, ok := it.Next()
			if !ok {
				break
			}
			if w < 0 || int(w) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, w)
			}
			if i > 0 && prev > w {
				return fmt.Errorf("graph: adjacency of vertex %d not sorted", v)
			}
			prev = w
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
	if g.compact != nil {
		bytes += int64(len(g.compact.offs))*8 + int64(len(g.compact.data))
	}
	return bytes
}

// AdjBytes returns the bytes spent on neighbor-id storage alone (the part
// Compact shrinks): 4 per arc raw, the varint stream plus byte offsets when
// compact. cmd/bench reports it so compression claims are auditable.
func (g *Graph) AdjBytes() int64 {
	if g.compact != nil {
		return int64(len(g.compact.offs))*8 + int64(len(g.compact.data))
	}
	return int64(len(g.adj)) * 4
}

// String summarizes the graph for logs.
func (g *Graph) String() string {
	kind := "undirected"
	if g.directed {
		kind = "directed"
	}
	return fmt.Sprintf("%s graph: %d vertices, %d edges", kind, g.NumVertices(), g.NumEdges())
}
