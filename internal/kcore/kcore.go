// Package kcore implements GraphCT's k-core extraction kernel: peeling
// vertices below the degree threshold until a fixed point, yielding both
// the core number of every vertex and induced k-core subgraphs (or only
// their sizes).
package kcore

import (
	"slices"

	"graphct/internal/graph"
	"graphct/internal/par"
)

// Decompose returns core[v], the largest k such that v belongs to the
// k-core of g (the maximal subgraph where every vertex has degree >= k).
// Isolated vertices have core number 0. Directed graphs are decomposed on
// their undirected projection. Degrees count arcs: a repeated edge counts
// once per copy, and a self loop counts in its vertex's degree for as long
// as the vertex stands.
//
// The peeling is Batagelj and Zaversnik's, O(n + m): vertices sit in an
// array bucket-sorted by current degree, and walking the array peels them
// in nondecreasing degree. Peeling v lowers each neighbor of higher degree
// by one, moving it to the front of its bucket and the bucket's start past
// it, so the part of the array not yet walked stays sorted. The degree a
// vertex holds when the walk reaches it is its core number.
func Decompose(g *graph.Graph) []int32 {
	if g.Directed() {
		g = g.Undirected()
	}
	n := g.NumVertices()
	deg := make([]int32, n)
	var maxDeg int32
	for v := range deg {
		deg[v] = int32(g.Degree(int32(v)))
		maxDeg = max(maxDeg, deg[v])
	}
	// bin[d] is where degree d's bucket starts in vert; pos[v] is v's
	// index in vert.
	bin := make([]int32, maxDeg+2)
	for _, d := range deg {
		bin[d+1]++
	}
	for d := int32(1); d <= maxDeg+1; d++ {
		bin[d] += bin[d-1]
	}
	pos := make([]int32, n)
	vert := make([]int32, n)
	for v, d := range deg {
		pos[v] = bin[d]
		vert[bin[d]] = int32(v)
		bin[d]++
	}
	copy(bin[1:], bin[:maxDeg+1])
	bin[0] = 0
	// vert[i] is read when the walk reaches it: swaps only move entries
	// past i, into the buckets of higher degree.
	for _, v := range vert {
		dv := deg[v]
		for _, u := range g.Neighbors(v) {
			du := deg[u]
			if du <= dv {
				continue
			}
			// Swap u with the first vertex of its bucket, then shrink the
			// bucket past it: u now heads bucket du-1.
			pu, pw := pos[u], bin[du]
			if w := vert[pw]; w != u {
				pos[u], vert[pu] = pw, w
				pos[w], vert[pw] = pu, u
			}
			bin[du]++
			deg[u] = du - 1
		}
	}
	return deg
}

// Extract returns the induced subgraph of vertices with core number >= k
// together with their original ids — GraphCT's "extracting k-cores" kernel.
func Extract(g *graph.Graph, k int32) (*graph.Graph, []int32) {
	core := Decompose(g)
	keep := make([]bool, g.NumVertices())
	par.For(len(keep), func(v int) { keep[v] = core[v] >= k })
	return g.Induced(keep)
}

// Profile holds the size of every k-core of a graph at once: the k-core
// has Vertices[k] vertices and Edges[k] edges, for k from 0 to one past
// the degeneracy, the first k whose core is empty. It is O(degeneracy)
// memory.
type Profile struct {
	Vertices []int
	Edges    []int64
}

// NewProfile counts every k-core's vertices and edges in one O(n + m) pass;
// core is Decompose(g). The counts are those of the subgraph Extract(g, k)
// builds. A vertex lies in the k-cores for k <= core[v], an edge {v, w} in
// those for k <= min(core[v], core[w]), so each count is a suffix sum of a
// histogram. As in Induced, repeated arcs count once; as in NumEdges, a
// directed g counts its own arcs and an undirected one its edges, with a
// self loop counted once.
func NewProfile(g *graph.Graph, core []int32) Profile {
	var maxCore int32
	for _, c := range core {
		maxCore = max(maxCore, c)
	}
	p := Profile{Vertices: make([]int, maxCore+2), Edges: make([]int64, maxCore+2)}
	for v, cv := range core {
		p.Vertices[cv]++
		row := g.Neighbors(int32(v))
		if !g.Directed() {
			// Each undirected edge {v, w} is counted from its lower end,
			// a self loop from its own row.
			lo, _ := slices.BinarySearch(row, int32(v))
			row = row[lo:]
		}
		last := int32(-1)
		for _, w := range row {
			if w != last {
				p.Edges[min(cv, core[w])]++
			}
			last = w
		}
	}
	for k := maxCore; k >= 0; k-- {
		p.Vertices[k] += p.Vertices[k+1]
		p.Edges[k] += p.Edges[k+1]
	}
	return p
}

// At returns the k-core's vertex and edge counts. A k past the table's end
// has an empty core.
func (p Profile) At(k int) (vertices int, edges int64) {
	k = min(k, len(p.Vertices)-1)
	return p.Vertices[k], p.Edges[k]
}
