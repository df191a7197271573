// Package cc extracts connected components with a parallel coloring kernel
// in the style GraphCT borrows from Kahan's algorithm: parallel greedy
// coloring from every vertex, colliding colors absorbed by atomically
// hooking higher labels onto lower ones, then pointer jumping to flatten the
// label forest. The fixed point labels every vertex with the smallest vertex
// id in its component.
package cc

import (
	"sort"
	"sync/atomic"

	"graphct/internal/graph"
	"graphct/internal/par"
)

// Result is a component labeling.
type Result struct {
	Colors []int32 // Colors[v] = smallest vertex id in v's component
	Count  int     // number of components
}

// Components labels the connected components of g. Directed graphs are
// labeled by weak connectivity (arc direction ignored).
func Components(g *graph.Graph) *Result {
	work := g
	if g.Directed() {
		work = g.Undirected()
	}
	n := work.NumVertices()
	colors := make([]int32, n)
	par.For(n, func(v int) { colors[v] = int32(v) })
	for {
		var changed atomic.Bool
		// Hooking: absorb higher labels into lower labeled neighbors.
		par.ForChunked(n, 0, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				cv := atomic.LoadInt32(&colors[v])
				for _, w := range work.Neighbors(int32(v)) {
					cw := atomic.LoadInt32(&colors[w])
					switch {
					case cw < cv:
						if par.MinInt32(&colors[v], cw) {
							changed.Store(true)
						}
						cv = atomic.LoadInt32(&colors[v])
					case cv < cw:
						if par.MinInt32(&colors[w], cv) {
							changed.Store(true)
						}
					}
				}
			}
		})
		// Pointer jumping: relabel colors downward until the forest is
		// flat (colors[colors[v]] == colors[v]).
		par.For(n, func(v int) {
			c := atomic.LoadInt32(&colors[v])
			for {
				cc := atomic.LoadInt32(&colors[c])
				if cc == c {
					break
				}
				c = cc
			}
			if atomic.LoadInt32(&colors[v]) != c {
				atomic.StoreInt32(&colors[v], c)
				changed.Store(true)
			}
		})
		if !changed.Load() {
			break
		}
	}
	count := 0
	for v := 0; v < n; v++ {
		if colors[v] == int32(v) {
			count++
		}
	}
	return &Result{Colors: colors, Count: count}
}

// Component is one entry of a component census.
type Component struct {
	Label int32 // the component's color (smallest member id)
	Size  int64 // number of vertices
}

// Census returns the components ordered by decreasing size (ties broken by
// label), GraphCT's "calculate statistical distributions of component
// sizes" input and the ordering its "extract component N" scripting command
// indexes into (N=1 is the largest).
func (r *Result) Census() []Component {
	sizes := make(map[int32]int64)
	for _, c := range r.Colors {
		sizes[c]++
	}
	out := make([]Component, 0, len(sizes))
	for label, size := range sizes {
		out = append(out, Component{Label: label, Size: size})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Size != out[j].Size {
			return out[i].Size > out[j].Size
		}
		return out[i].Label < out[j].Label
	})
	return out
}

// Extract returns the subgraph of the rank-th largest component (rank 1 =
// largest) together with the original vertex ids. A rank beyond the number
// of components yields an empty graph.
func Extract(g *graph.Graph, r *Result, rank int) (*graph.Graph, []int32) {
	census := r.Census()
	if rank < 1 || rank > len(census) {
		return graph.Empty(0, g.Directed()), nil
	}
	return g.InducedByColor(r.Colors, census[rank-1].Label)
}

// Largest returns the largest (weakly) connected component of g with the
// original ids — the paper's LWCC rows in Table III.
func Largest(g *graph.Graph) (*graph.Graph, []int32) {
	return Extract(g, Components(g), 1)
}
