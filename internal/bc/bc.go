// Package bc implements GraphCT's betweenness centrality kernels: exact
// Brandes centrality, the sampled approximation the paper evaluates at 10,
// 25, 50 and 100 percent source coverage, and k-betweenness centrality,
// which also counts paths up to k longer than the shortest so scores are
// robust to small graph perturbations.
//
// Parallelism follows the paper's coarse level: many source computations
// run concurrently, bounded so working memory stays O(S·(m+n)) for S
// sources in flight. Every source-parallel kernel (classic, folded and
// k-) goes through one driver, runSources. Directed graphs are analysed
// on their undirected projection, as the paper analyses mention graphs.
//
// Classic undirected betweenness first folds pendant (degree-1) vertices
// into their neighbors when enough sweeps share the saving (fold.go): the
// sweeps run on the pendant-free core, once per distinct core source and
// weighted by the drawn sources it answers for, and the scores are exact
// — the same as unfolded, pendants at 0. Mention graphs are 40 % pendants.
// The core is renamed in degree-descending order, hubs first.
//
// Accumulation into the score array departs from the XMT idiom on purpose.
// The paper's hardware hides the latency of hammering one shared array
// with atomic updates; on cache-coherent commodity machines the same
// pattern turns the high-centrality hubs of a scale-free graph into
// white-hot contended cache lines. Each in-flight source therefore
// accumulates into a private stripe and the stripes are merged once by a
// parallel tree reduction. A stripe is 8·n bytes beside the 44·n bytes of
// per-source scratch the slot needs anyway. Both Brandes sweeps are
// direction-optimized. The forward sweep picks top-down or bottom-up per
// level (Beamer, thresholds shared with internal/bfs), so hub-dominated
// levels stop scanning the whole edge list, and every bottom-up level
// after a sweep's first walks only the ids still unvisited. The backward
// sweep picks per level between pulling over the level's own rows and
// pushing from the next-deeper level's rows, whichever reads fewer arcs;
// both add each vertex's successor terms in ascending id, so a source's
// dependencies are bit-identical to the pull-only sweep's either way.
package bc

import (
	"context"
	"fmt"
	"math/rand"

	"graphct/internal/graph"
	"graphct/internal/par"
)

// MaxK is the largest supported k for k-betweenness centrality. Beyond
// slack 2 the exact accounting of walks revisiting a vertex stops being a
// local computation; the paper's analyses use k of at most 2.
const MaxK = 2

// Options configures a centrality run.
type Options struct {
	// K selects k-betweenness centrality; 0 is classic betweenness. The
	// kernel supports k in [0, 2] — the range the paper's analyses and
	// script examples use (kcentrality 1 and 2); see MaxK.
	K int
	// Samples is the number of randomly sampled source vertices.
	// <= 0 or >= NumVertices means every vertex (exact computation).
	Samples int
	// Seed drives source sampling.
	Seed int64
	// Concurrency bounds how many sources run at once; <= 0 means the
	// worker count. Memory grows linearly with this bound.
	Concurrency int
	// Strategy selects how sampled sources are drawn; the zero value is
	// the paper's uniform ("unguided") sampling.
	Strategy Sampling
}

// Result holds centrality scores. Sampled scores are scaled by n/|sources|
// so they estimate the exact scores.
type Result struct {
	Scores  []float64
	Sources []int32 // the sources actually used, in sampled order
	K       int
}

// Exact computes classic betweenness centrality from every source.
func Exact(g *graph.Graph) *Result {
	return Centrality(g, Options{})
}

// Approx computes sampled approximate betweenness centrality.
func Approx(g *graph.Graph, samples int, seed int64) *Result {
	return Centrality(g, Options{Samples: samples, Seed: seed})
}

// Centrality computes (k-)betweenness centrality per opt.
func Centrality(g *graph.Graph, opt Options) *Result {
	r, err := CentralityCtx(context.Background(), g, opt)
	if err != nil {
		// Unreachable: the background context never cancels and source
		// tasks produce no other errors.
		panic("bc: source task failed: " + err.Error())
	}
	return r
}

// CentralityCtx computes (k-)betweenness centrality per opt, observing
// cooperative cancellation between source computations — the coarse loop
// is the kernel's natural checkpoint granularity. A cancelled context
// returns ctx.Err() with no result.
//
// Classic betweenness (k = 0) folds pendant vertices away when that pays
// (fold.go); the scores are exact either way.
func CentralityCtx(ctx context.Context, g *graph.Graph, opt Options) (*Result, error) {
	if opt.K < 0 || opt.K > MaxK {
		panic(fmt.Sprintf("bc: k = %d outside supported range [0, %d]", opt.K, MaxK))
	}
	if g.Directed() {
		// The paper treats mention graphs as undirected for centrality;
		// the backward sweeps likewise assume symmetric adjacency.
		g = g.Undirected()
	}
	sources, sweeps, scale := drawSources(g, opt)
	if opt.K == 0 {
		if f := planFold(g, sources); f != nil {
			scores, err := runSources(ctx, f.core.NumVertices(), f.sweeps, scale, opt.Concurrency, f.kernel)
			if err != nil {
				return nil, err
			}
			return &Result{Scores: f.expand(scores), Sources: sources}, nil
		}
	}
	scores, err := runSources(ctx, g.NumVertices(), sweeps, scale, opt.Concurrency, func() sourceKernel {
		ws := newWorkspace(g, opt.K)
		if opt.K == 0 {
			return func(s int32, sink scoreSink) { brandesSource(g, s, ws, sink) }
		}
		return func(s int32, sink scoreSink) { kbcSource(g, s, ws, sink) }
	})
	if err != nil {
		return nil, err
	}
	return &Result{Scores: scores, Sources: sources, K: opt.K}, nil
}

// drawSources draws opt's sources from g, one unit sweep each, and the
// scale n/|sources| that makes sums over them estimate the exact scores.
func drawSources(g *graph.Graph, opt Options) ([]int32, []sweep, float64) {
	n := g.NumVertices()
	sources := sampleWithStrategy(g, opt.Samples, opt.Seed, opt.Strategy)
	sweeps := make([]sweep, len(sources))
	for i, s := range sources {
		sweeps[i] = sweep{s: s, weight: 1}
	}
	scale := 1.0
	if len(sources) > 0 && len(sources) < n {
		scale = float64(n) / float64(len(sources))
	}
	return sources, sweeps, scale
}

// runSources is the one source-parallel driver: keep at most concurrency
// sweeps over an n-vertex graph in flight, each on a slot holding a
// private score stripe and a kernel from newKernel, and merge the stripes.
// A sweep's contributions are scaled by scale times its weight. The
// context is checked between sweeps; in-flight sweeps finish.
func runSources(ctx context.Context, n int, sweeps []sweep, scale float64, concurrency int, newKernel func() sourceKernel) ([]float64, error) {
	limit := concurrency
	if limit <= 0 {
		limit = par.Workers()
	}
	// One slot per sweep that can be in flight, handed out through a free
	// list; fewer sweeps than the limit means fewer to allocate and merge.
	stripes := make([][]float64, max(1, min(limit, len(sweeps))))
	free := make(chan *slot, len(stripes))
	for i := range stripes {
		stripes[i] = make([]float64, n)
		free <- &slot{local: stripes[i]}
	}
	grp := par.NewGroup(limit)
	for _, sw := range sweeps {
		if ctx.Err() != nil {
			break // stop scheduling
		}
		grp.Go(func() error {
			if err := ctx.Err(); err != nil {
				return err
			}
			sl := <-free
			if sl.kernel == nil {
				sl.kernel = newKernel()
			}
			sl.kernel(sw.s, scoreSink{
				local: sl.local,
				scale: scale * float64(sw.weight),
				leaf:  scale * float64(sw.leaves),
			})
			free <- sl
			return nil
		})
	}
	if err := grp.Wait(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	scores := make([]float64, n)
	par.SumSlices(scores, stripes) // tree reduction; consumes the stripes
	return scores, nil
}

// sampleSources returns the source set: all vertices when samples is out of
// range, otherwise a uniform sample without replacement.
func sampleSources(n, samples int, seed int64) []int32 {
	if n == 0 {
		return nil
	}
	if samples <= 0 || samples >= n {
		all := make([]int32, n)
		for i := range all {
			all[i] = int32(i)
		}
		return all
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	out := make([]int32, samples)
	for i := 0; i < samples; i++ {
		out[i] = int32(perm[i])
	}
	return out
}

// TopK returns the indices of the k highest-scoring vertices in descending
// score order (ties broken by vertex id for determinism). Selection is a
// bounded min-heap over the k best seen so far — O(n log k) instead of
// sorting all n scores, which matters when a server request wants the top
// 10 of a multi-million-vertex graph.
func (r *Result) TopK(k int) []int32 {
	scores := r.Scores
	n := len(scores)
	if k > n {
		k = n
	}
	if k <= 0 {
		return []int32{}
	}
	// worse orders by eviction priority: lowest score first, highest id
	// first among ties, so the heap root is always the candidate to drop.
	worse := func(a, b int32) bool {
		if scores[a] != scores[b] {
			return scores[a] < scores[b]
		}
		return a > b
	}
	heap := make([]int32, 0, k)
	siftDown := func(i, size int) {
		for {
			l := 2*i + 1
			if l >= size {
				return
			}
			m := l
			if rt := l + 1; rt < size && worse(heap[rt], heap[l]) {
				m = rt
			}
			if !worse(heap[m], heap[i]) {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for v := int32(0); int(v) < n; v++ {
		if len(heap) < k {
			heap = append(heap, v)
			for i := len(heap) - 1; i > 0; {
				p := (i - 1) / 2
				if !worse(heap[i], heap[p]) {
					break
				}
				heap[i], heap[p] = heap[p], heap[i]
				i = p
			}
			continue
		}
		if worse(heap[0], v) {
			heap[0] = v
			siftDown(0, k)
		}
	}
	// Heap-sort extraction: repeatedly move the worst survivor to the
	// back, leaving best-to-worst order in place.
	for size := k - 1; size > 0; size-- {
		heap[0], heap[size] = heap[size], heap[0]
		siftDown(0, size)
	}
	return heap
}
