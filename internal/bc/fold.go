package bc

import (
	"graphct/internal/graph"
	"graphct/internal/par"
)

// Pendant folding for classic betweenness (Sariyüce et al., "Shattering
// and Compressing Networks for Betweenness Centrality", SDM 2013). A
// pendant is a degree-1 vertex whose one arc leads to a vertex p of degree
// at least 2; it lies on no shortest path between two other vertices, so
// its score is 0, and what it adds elsewhere is a closed form:
//
//   - as a target of a sweep from a core source, it is one more successor
//     of p with p's path count and no dependency, adding 1 to p's
//     dependency (backwardSweep's pend term);
//   - as a source, its sweep is p's shifted one level down: the same
//     dependency on every other vertex, plus reached − 2 on p, where
//     reached counts the vertices of the unfolded graph it reaches
//     (brandesSource's leaf term).
//
// So a folded run sweeps the pendant-free core once per distinct core
// source, weighted by the drawn sources it answers for, and the scores are
// the unfolded ones. Only one layer is folded: a vertex left with degree 1
// once its pendants are gone stays in the core, which keeps the map from
// sources to sweeps one step deep. A K2 (two degree-1 vertices joined) and
// a vertex whose only arc is a self loop fold into nothing.

// foldC is the fold rule's constant: fold only when distinct sweeps ×
// folded vertices >= foldC × n, so the per-sweep saving pays for building
// the core (an O(n + m) pass, a few sweeps' worth of vertex work) and for
// the remapping. DESIGN §6.6 records how it was measured. It is a variable
// only so tests can force the fold.
var foldC int64 = 16

// fold is a k = 0 run on the pendant-free core of g, its vertices renamed
// in degree-descending order.
type fold struct {
	n      int // vertices of g
	core   *graph.Graph
	origID []int32   // origID[c] is core vertex c's id in g
	pend   []float64 // pend[c] counts the pendants folded into c
	sweeps []sweep   // one per distinct core source, in first-drawn order, in core ids
}

// parentOf returns the vertex pendant v folds into, or -1 if v is not a
// pendant.
func parentOf(g *graph.Graph, v int32) int32 {
	if g.Degree(v) != 1 {
		return -1
	}
	if p := g.Neighbors(v)[0]; p != v && g.Degree(p) >= 2 {
		return p
	}
	return -1
}

// planFold returns the folded run for sources on the undirected graph g,
// or nil when there is nothing to fold or folding does not pay. The run
// owns its core, about one more adjacency of g (DESIGN §6.6).
func planFold(g *graph.Graph, sources []int32) *fold {
	n := g.NumVertices()
	pendants := par.Count(n, func(v int) bool { return parentOf(g, int32(v)) >= 0 })
	// Distinct sweeps never exceed the drawn sources: a cheap bound that
	// turns small requests away before anything is allocated.
	if pendants == 0 || int64(len(sources))*pendants < foldC*int64(n) {
		return nil
	}
	// Each drawn source maps to itself, or to its parent if pendant.
	at := make([]int32, n) // 1 + v's index in sweeps; 0 while v has none
	var sweeps []sweep
	for _, s := range sources {
		c, leaf := s, int32(0)
		if p := parentOf(g, s); p >= 0 {
			c, leaf = p, 1
		}
		if at[c] == 0 {
			sweeps = append(sweeps, sweep{s: c})
			at[c] = int32(len(sweeps))
		}
		sw := &sweeps[at[c]-1]
		sw.weight++
		sw.leaves += leaf
	}
	if int64(len(sweeps))*pendants < foldC*int64(n) {
		return nil
	}

	keep := make([]bool, n)
	par.For(n, func(v int) { keep[v] = parentOf(g, int32(v)) < 0 })
	// Hubs first: the core is swept in degree-descending order, so the
	// per-vertex reads of its hub rows share a few cache lines instead of
	// following the input's first-seen order (DESIGN §6.6).
	core, origID := g.InducedArcsByDegree(keep)
	// at now renames core vertices: core id, by g id.
	par.For(len(origID), func(c int) { at[origID[c]] = int32(c) })
	pend := make([]float64, len(origID))
	for v := int32(0); int(v) < n; v++ {
		if p := parentOf(g, v); p >= 0 {
			pend[at[p]]++
		}
	}
	for i := range sweeps {
		sweeps[i].s = at[sweeps[i].s]
	}
	return &fold{n: n, core: core, origID: origID, pend: pend, sweeps: sweeps}
}

// kernel builds one slot's Brandes kernel over the core.
func (f *fold) kernel() sourceKernel {
	ws := newWorkspace(f.core, 0)
	ws.pend = f.pend
	return func(s int32, sink scoreSink) { brandesSource(f.core, s, ws, sink) }
}

// expand maps core scores back to g's ids; pendants score 0.
func (f *fold) expand(scores []float64) []float64 {
	out := make([]float64, f.n)
	par.For(len(f.origID), func(c int) { out[f.origID[c]] = scores[c] })
	return out
}
