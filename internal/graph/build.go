package graph

import (
	"fmt"
	"math/bits"
	"slices"

	"graphct/internal/par"
)

// Options controls edge-list ingest.
type Options struct {
	// Directed stores arcs as given; otherwise every edge is symmetrized.
	Directed bool
	// KeepDuplicates retains duplicate interactions, producing a
	// multigraph. GraphCT's Twitter pipeline discards duplicates; the
	// flag exists for the dedup ablation.
	KeepDuplicates bool
	// KeepSelfLoops retains u==u arcs ("self-referring vertices"). The
	// default drops them, as the mention-graph builder does.
	KeepSelfLoops bool
}

// FromEdges ingests an edge list into a CSR graph with n vertices. Vertex
// ids must lie in [0, n); n may exceed the largest referenced id to include
// isolated vertices. The input slice is not modified.
func FromEdges(n int, edges []Edge, opt Options) (*Graph, error) {
	return fromList(n, len(edges), false, opt, func(i int) (u, v, w int32) { return edges[i].U, edges[i].V, 0 })
}

// FromWeightedEdges ingests a weighted edge list. When duplicates are
// merged, each arc keeps the weight of its first instance in input order;
// on undirected input (u,v,w1) and (v,u,w2) are one edge, and both of its
// arcs carry w1. Kept duplicates stay in input order within their row.
func FromWeightedEdges(n int, edges []WeightedEdge, opt Options) (*Graph, error) {
	return fromList(n, len(edges), true, opt, func(i int) (u, v, w int32) { return edges[i].U, edges[i].V, edges[i].W })
}

// fromList validates the m edges at(i) in parallel and packs each as a key
// u<<b | v (endpoints ordered u <= v unless directed) for build. An error
// names the lowest-index bad edge, the one a serial scan would find.
func fromList(n, m int, weighted bool, opt Options, at func(i int) (u, v, w int32)) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	b := idBits(n)
	keys := make([]uint64, m)
	var wts []int32
	if weighted {
		wts = make([]int32, m)
	}
	first := make([]int, par.Workers()) // per worker: its first bad edge, or m
	par.ForWorkers(len(first), func(w, workers int) {
		first[w] = m
		for i, hi := w*m/workers, (w+1)*m/workers; i < hi; i++ {
			u, v, wt := at(i)
			if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
				first[w] = i
				return
			}
			if !opt.Directed && u > v {
				u, v = v, u
			}
			keys[i] = uint64(u)<<b | uint64(v)
			if weighted {
				wts[i] = wt
			}
		}
	})
	if i := slices.Min(first); i < m {
		u, v, _ := at(i)
		return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	return build(n, keys, wts, opt), nil
}

// idBits is the width of one packed endpoint: ⌈log₂ n⌉, so a key spends
// exactly the bits the vertex count needs and the radix sort skips the
// rest.
func idBits(n int) int {
	if n <= 1 {
		return 0
	}
	return min(bits.Len(uint(n-1)), 31)
}

// build is the one CSR constructor every builder reaches. keys are
// u<<b | v packed arcs over n vertices (b = idBits(n)); wts, when non-nil,
// is aligned with keys. Undirected keys must be canonical (u <= v): each
// one becomes the arc u->v and, unless it is a self loop, v->u. keys is
// reordered; wts is not.
//
// The keys are radix sorted over their 2b significant bits — stably, so
// equal keys keep their input order and dropping all but the first of each
// run keeps the first instance's weight. Self loops and duplicates are
// dropped on the sorted keys. The fill then needs no atomics and no row
// sort: the sorted keys are cut into one contiguous chunk per worker, each
// worker counts the arcs its chunk sends to every row, and one prefix over
// (row, worker) gives each worker a private slot range per row. Walking
// its chunk in key order, a worker writes row x's reverse arcs (keys
// (u,x), u < x, in ascending u) before its forward run (keys (x,v),
// ascending v), and every reverse key sorts before every forward key, so
// each row comes out sorted.
func build(n int, keys []uint64, wts []int32, opt Options) *Graph {
	b := idBits(n)
	if wts == nil {
		par.RadixSortUint64(keys, 2*b)
	} else {
		keys, wts = sortWeighted(keys, wts, b)
	}
	m, mask := len(keys), uint64(1)<<b-1
	mirror := !opt.Directed
	// More workers than arcs per vertex would spend more on the n-sized
	// count arrays than on the arcs.
	workers := max(1, min(par.Workers(), m/max(n, 1)))
	cnt := make([][]int64, workers)
	par.ForWorkers(workers, func(w, workers int) {
		c := make([]int64, n)
		for j, hi := w*m/workers, (w+1)*m/workers; j < hi; j++ {
			if !live(keys, j, b, opt) {
				continue
			}
			u, v := keys[j]>>b, keys[j]&mask
			c[u]++
			if mirror && u != v {
				c[v]++
			}
		}
		cnt[w] = c
	})
	rowPtr := make([]int64, n+1)
	var sum int64
	for x := 0; x < n; x++ {
		rowPtr[x] = sum
		for _, c := range cnt {
			c[x], sum = sum, sum+c[x]
		}
	}
	rowPtr[n] = sum
	adj := make([]int32, sum)
	var aw []int32
	if wts != nil {
		aw = make([]int32, sum)
	}
	par.ForWorkers(workers, func(w, workers int) {
		next := cnt[w]
		for j, hi := w*m/workers, (w+1)*m/workers; j < hi; j++ {
			if !live(keys, j, b, opt) {
				continue
			}
			u, v := keys[j]>>b, keys[j]&mask
			p := next[u]
			next[u]++
			adj[p] = int32(v)
			if aw != nil {
				aw[p] = wts[j]
			}
			if mirror && u != v {
				p = next[v]
				next[v]++
				adj[p] = int32(u)
				if aw != nil {
					aw[p] = wts[j]
				}
			}
		}
	})
	return &Graph{rowPtr: rowPtr, adj: adj, weights: aw, directed: opt.Directed}
}

// live reports whether sorted key j becomes arcs: it is not a repeat of
// key j-1 (unless duplicates are kept) nor a self loop (unless kept).
func live(keys []uint64, j, b int, opt Options) bool {
	k := keys[j]
	return (opt.KeepDuplicates || j == 0 || k != keys[j-1]) &&
		(opt.KeepSelfLoops || k>>b != k&(1<<b-1))
}

// sortWeighted is the weighted form of build's sort: it returns keys
// sorted stably over their 2b significant bits and their weights in the
// same order, leaving wts untouched. A key and its input position do not
// always fit one word together, so the sort is two LSD rounds over b bits
// each, position i riding above the half-key: by v first, then stably by
// u. (i < 2^(64-b) holds for any list that fits in memory: b <= 31.)
func sortWeighted(keys []uint64, wts []int32, b int) ([]uint64, []int32) {
	mask := uint64(1)<<b - 1
	idx := make([]uint64, len(keys))
	par.For(len(keys), func(i int) { idx[i] = uint64(i)<<b | keys[i]&mask })
	par.RadixSortUint64(idx, b)
	par.For(len(idx), func(j int) { idx[j] = idx[j]>>b<<b | keys[idx[j]>>b]>>b })
	par.RadixSortUint64(idx, b)
	w := make([]int32, len(idx))
	par.For(len(idx), func(j int) { idx[j], w[j] = keys[idx[j]>>b], wts[idx[j]>>b] })
	return idx, w
}

// Empty returns a graph with n vertices and no edges.
func Empty(n int, directed bool) *Graph {
	return &Graph{rowPtr: make([]int64, n+1), adj: nil, directed: directed}
}
