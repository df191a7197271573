// Package bfs implements GraphCT's level-synchronous breadth-first search:
// one direction-optimizing engine behind every BFS caller. Each level runs
// top-down (the frontier pushes to its unvisited neighbors) or, on
// undirected graphs, bottom-up (every unvisited vertex scans its own row
// for a frontier member and stops at the first) by Beamer's thresholds.
// A level under two million arcs runs on the calling goroutine; a larger one
// is split over par.Workers(), top-down claims going through one
// compare-and-swap per vertex — the fine-grained parallelism the paper
// exposes inside every traversal kernel. All scratch comes from a pooled
// workspace, so a warm search allocates only what its caller keeps.
package bfs

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"

	"graphct/internal/graph"
	"graphct/internal/par"
)

// Unreached marks vertices a search never visited.
const Unreached = int32(-1)

// Beamer-style direction-optimizing switch thresholds: a level runs
// bottom-up when the frontier's out-arcs exceed the unvisited vertices'
// arcs/alpha and the frontier holds more than vertices/beta. Exported
// because the betweenness kernel's direction-optimized forward sweeps
// (internal/bc) share them — one tuning point for every hybrid traversal
// in the tree.
const (
	HybridAlpha = 14
	HybridBeta  = 24
)

// inlineArcs is the arc count (for a bottom-up level, the bound on it) below
// which a level runs on the calling goroutine. Splitting a level means
// waking parked cores and waiting for the last of them, and on a shared host
// that wait is the host's to set: split from 1<<16, the searches of the
// benchmark's two-million-arc R-MAT were 6 % faster on two cores and their
// rate spread a third wider from run to run (quartile distance 52 against
// 38 reads/s over 30 runs each). Two million arcs are milliseconds of
// reading for one core; a scale-18 R-MAT still splits its bottom-up levels.
// A variable only so that tests can make small graphs split.
var inlineArcs int64 = 1 << 21

// Result holds the output of one breadth-first search.
type Result struct {
	Source int32
	Level  []int32 // Level[v] = hops from Source, or Unreached
	Parent []int32 // Parent[v] = BFS-tree parent, Source's parent is itself
	Depth  int     // deepest level reached (eccentricity within the component)
	Order  []int32 // vertices in visitation (level) order
}

// Reached reports whether v was visited.
func (r *Result) Reached(v int32) bool { return r.Level[v] != Unreached }

// NumReached returns the number of visited vertices (the component size for
// an unbounded search of an undirected graph).
func (r *Result) NumReached() int { return len(r.Order) }

// Summary is the extent of a search, for callers that need neither levels
// nor the tree.
type Summary struct {
	Reached int // vertices visited, the source included
	Depth   int // deepest level reached
}

// Search runs a full breadth-first search from src.
func Search(g *graph.Graph, src int32) *Result {
	return SearchBounded(g, src, -1)
}

// SearchBounded runs a breadth-first search from src exploring at most
// maxDepth levels (maxDepth < 0 means unbounded). This is GraphCT's "mark a
// breadth-first search from a given vertex of a given length" kernel. An
// out-of-range src reaches nothing. Directed graphs follow out-arcs and run
// top-down only; Parent ties and the order within a level are unspecified.
func SearchBounded(g *graph.Graph, src int32, maxDepth int) *Result {
	n := g.NumVertices()
	mem := make([]int32, 3*n) // Level, Parent and Order in one allocation
	fill(mem[:2*n])
	r := &Result{Source: src, Level: mem[:n:n], Parent: mem[n : 2*n : 2*n]}
	ws := pool.Get().(*workspace)
	r.Order, r.Depth = ws.search(g, src, maxDepth, r.Level, r.Parent, mem[2*n:2*n], par.Workers())
	pool.Put(ws)
	return r
}

// Summarize runs the same search as SearchBounded and returns only how
// many vertices it reached and how deep it went. A warm call allocates
// nothing, apart from the goroutines of any level large enough to split.
func Summarize(g *graph.Graph, src int32, maxDepth int) Summary {
	ws := pool.Get().(*workspace)
	s := ws.summarize(g, src, maxDepth, par.Workers())
	pool.Put(ws)
	return s
}

// Eccentricities returns the eccentricity of every source in srcs. The
// parallelism is over sources, not inside a search: each worker owns a
// workspace and runs whole searches serially, the coarse-grained shape
// Brandes uses. The context is checked before each source, so a cancelled
// call stops after at most one in-flight search per worker.
func Eccentricities(ctx context.Context, g *graph.Graph, srcs []int32) ([]int, error) {
	ecc := make([]int, len(srcs))
	var cursor atomic.Int64
	par.ForEachWorker(func(_, _ int) {
		ws := pool.Get().(*workspace)
		defer pool.Put(ws)
		for ctx.Err() == nil {
			i := int(cursor.Add(1)) - 1
			if i >= len(srcs) {
				return
			}
			ecc[i] = ws.summarize(g, srcs[i], -1, 1).Depth
		}
	})
	return ecc, ctx.Err()
}

// workspace is the scratch of one search in flight. Nothing in it outlives
// the search, so workspaces are pooled across searches and graphs.
type workspace struct {
	queue    []int32   // Summarize's visitation queue
	visited  []uint64  // one bit per vertex: claimed by some level
	front    []uint64  // the frontier as a bitmap, for bottom-up levels
	next     []uint64  // the level a bottom-up step is discovering
	claimed  [][]int32 // per-worker output of a parallel top-down level
	examined int64     // arcs the last search read
}

var pool = sync.Pool{New: func() any { return new(workspace) }}

func fill(s []int32) {
	for i := range s {
		s[i] = Unreached
	}
}

func (ws *workspace) summarize(g *graph.Graph, src int32, maxDepth, workers int) Summary {
	if n := g.NumVertices(); cap(ws.queue) < n {
		ws.queue = make([]int32, 0, n)
	}
	order, depth := ws.search(g, src, maxDepth, nil, nil, ws.queue[:0], workers)
	return Summary{Reached: len(order), Depth: depth}
}

// sweep is what the steps of one search share: the graph's rows, read from
// the concrete CSR, the visited bitmap vertices are claimed in, and the
// arrays the caller wants filled.
type sweep struct {
	rowPtr  []int64
	adj     []int32
	visited []uint64
	level   []int32 // nil when the caller wants no levels
	parent  []int32 // nil when the caller wants no tree
}

// search is the engine. level and parent are nil or hold Unreached in all
// n entries; queue is empty with capacity n. It returns the queue holding
// every reached vertex in level order, and the deepest level. Levels run
// on at most `workers` goroutines.
func (ws *workspace) search(g *graph.Graph, src int32, maxDepth int, level, parent, queue []int32, workers int) ([]int32, int) {
	n := g.NumVertices()
	ws.examined = 0
	if src < 0 || int(src) >= n {
		return queue, 0
	}
	for len(ws.claimed) < workers {
		ws.claimed = append(ws.claimed, nil)
	}
	words := (n + 63) >> 6
	if cap(ws.visited) < words {
		ws.visited, ws.front, ws.next = make([]uint64, words), make([]uint64, words), make([]uint64, words)
	}
	ws.visited, ws.front, ws.next = ws.visited[:words], ws.front[:words], ws.next[:words]
	clear(ws.visited)
	if n&63 != 0 {
		ws.visited[words-1] = ^uint64(0) << (uint(n) & 63) // no vertices behind these bits
	}
	s := sweep{rowPtr: g.RowPtr(), adj: g.AdjArray(), visited: ws.visited, level: level, parent: parent}
	ws.visited[src>>6] |= 1 << (uint(src) & 63)
	if level != nil {
		level[src] = 0
	}
	if parent != nil {
		parent[src] = src
	}
	queue = append(queue, src)
	hybrid := !g.Directed()
	unvisitedArcs := g.NumArcs()
	frontInBitmap := false // ws.front already describes the frontier
	depth := 0
	for lo := 0; maxDepth < 0 || depth < maxDepth; depth++ {
		frontier := queue[lo:]
		lo = len(queue)
		var frontierArcs int64
		for _, u := range frontier {
			frontierArcs += s.rowPtr[u+1] - s.rowPtr[u]
		}
		unvisitedArcs -= frontierArcs
		d := int32(depth + 1)
		if hybrid && frontierArcs > unvisitedArcs/HybridAlpha && int64(len(frontier)) > int64(n)/HybridBeta {
			if !frontInBitmap {
				clear(ws.front)
				for _, u := range frontier {
					ws.front[u>>6] |= 1 << (uint(u) & 63)
				}
			}
			ws.bottomUpLevel(s, d, unvisitedArcs, workers)
			for w, word := range ws.next {
				for ; word != 0; word &= word - 1 {
					queue = append(queue, int32(w<<6+bits.TrailingZeros64(word)))
				}
			}
			ws.front, ws.next = ws.next, ws.front
			frontInBitmap = true
		} else {
			queue = ws.topDownLevel(s, frontier, d, queue, frontierArcs, workers)
			frontInBitmap = false
		}
		if len(queue) == lo {
			break
		}
	}
	return queue, depth
}

// topDownLevel expands frontier into queue, inline when the level is small
// or there is one worker, else in chunks claimed by the workers.
func (ws *workspace) topDownLevel(s sweep, frontier []int32, d int32, queue []int32, arcs int64, workers int) []int32 {
	ws.examined += arcs
	if workers == 1 || arcs < inlineArcs {
		return s.topDown(frontier, d, queue, false)
	}
	const chunk = 64
	var cursor atomic.Int64
	par.ForWorkers(workers, func(w, _ int) {
		out := ws.claimed[w][:0]
		for {
			lo := int(cursor.Add(chunk)) - chunk
			if lo >= len(frontier) {
				break
			}
			out = s.topDown(frontier[lo:min(lo+chunk, len(frontier))], d, out, true)
		}
		ws.claimed[w] = out
	})
	for _, out := range ws.claimed[:workers] {
		queue = append(queue, out...)
	}
	return queue
}

// topDown is the top-down step: every arc out of frontier is read, and each
// unvisited head is claimed in the visited bitmap, given level d and
// appended to out. With shared set other goroutines run the same step on
// other parts of the frontier, so the claim is a compare-and-swap on the
// bitmap word; the winner alone writes the vertex's level and parent.
func (s sweep) topDown(frontier []int32, d int32, out []int32, shared bool) []int32 {
	visited, level, parent := s.visited, s.level, s.parent
	for _, u := range frontier {
		for _, v := range s.adj[s.rowPtr[u]:s.rowPtr[u+1]] {
			word, bit := &visited[v>>6], uint64(1)<<(uint(v)&63)
			if !shared {
				if *word&bit != 0 {
					continue
				}
				*word |= bit
			} else if !claim(word, bit) {
				continue
			}
			if level != nil {
				level[v] = d
			}
			if parent != nil {
				parent[v] = u
			}
			out = append(out, v)
		}
	}
	return out
}

// claim sets bit in *word and reports whether this call was the one that
// set it.
func claim(word *uint64, bit uint64) bool {
	for {
		old := atomic.LoadUint64(word)
		if old&bit != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(word, old, old|bit) {
			return true
		}
	}
}

// bottomUpLevel fills ws.next with the unvisited vertices adjacent to
// ws.front, inline or in word-aligned chunks claimed by the workers.
func (ws *workspace) bottomUpLevel(s sweep, d int32, arcs int64, workers int) {
	words := len(ws.next)
	if workers == 1 || arcs < inlineArcs {
		ws.examined += s.bottomUp(d, ws.front, ws.next, 0, words)
		return
	}
	const chunk = 64 // words: 4096 vertices
	var cursor, examined atomic.Int64
	par.ForWorkers(workers, func(w, _ int) {
		var seen int64
		for {
			lo := int(cursor.Add(chunk)) - chunk
			if lo >= words {
				break
			}
			seen += s.bottomUp(d, ws.front, ws.next, lo, min(lo+chunk, words))
		}
		examined.Add(seen)
	})
	ws.examined += examined.Load()
}

// bottomUp is the bottom-up step over the vertices of bitmap words
// [wlo, whi): each unvisited vertex reads its row until it meets a member
// of front, which becomes its parent, and joins level d, next and visited.
// A vertex writes only its own level and parent entries and its own bitmap
// words, and front is read-only for the duration of the level, so
// goroutines working on disjoint word ranges need no atomics. It returns
// the number of arcs read.
func (s sweep) bottomUp(d int32, front, next []uint64, wlo, whi int) (examined int64) {
	level, parent := s.level, s.parent
	for w := wlo; w < whi; w++ {
		var found uint64
		for todo := ^s.visited[w]; todo != 0; todo &= todo - 1 {
			t := bits.TrailingZeros64(todo)
			v := int32(w<<6 + t)
			row := s.adj[s.rowPtr[v]:s.rowPtr[v+1]]
			seen := len(row)
			for i, u := range row {
				if front[u>>6]>>(uint(u)&63)&1 != 0 {
					found |= 1 << uint(t)
					if level != nil {
						level[v] = d
					}
					if parent != nil {
						parent[v] = u
					}
					seen = i + 1
					break
				}
			}
			examined += int64(seen)
		}
		next[w] = found
		s.visited[w] |= found
	}
	return examined
}
