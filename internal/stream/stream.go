// Package stream provides the streaming-graph substrate of the paper's
// companion work (Ediger, Jiang, Riedy, Bader, "Massive streaming data
// analytics: a case study with clustering coefficients", MTAAP 2010),
// which Section V positions as the temporal direction of this analysis:
// social graphs change over time, and recomputing metrics from scratch per
// batch wastes the structure shared between snapshots.
//
// A Stream ingests timestamped interaction edges in batches, keeps each
// vertex's neighbors in one sorted, duplicate-free row (the packed
// per-vertex array of STINGER and of NetworKit's dynamic graph), and can
// materialize a CSR snapshot for the static kernels at any point. It
// keeps no derived counts: clustering coefficients, like every other
// measure, are recounted by the static kernels on a snapshot. Snapshots
// are incremental: each materialization copies the adjacency of untouched
// vertices from the previous snapshot and copies only the rows updates
// dirtied — already sorted — so steady-state snapshot cost tracks the
// update rate, not the graph size.
//
// Batches are the concurrency unit, as in the streaming paper: ApplyBatch,
// the one way to change edges, parallelizes one batch internally over
// vertex shards (see batch.go), but a Stream accepts only one ApplyBatch
// call at a time — callers serialize writers (graphctd holds a per-graph
// writer lock) while any number of readers traverse previously
// materialized snapshots.
package stream

import (
	"fmt"
	"slices"

	"graphct/internal/graph"
	"graphct/internal/par"
)

// Update is one streamed interaction. The zero Del inserts the edge; Del
// true deletes it.
type Update struct {
	U, V int32
	Time int64 // arbitrary monotone timestamp (e.g. tweet id)
	Del  bool
}

// Stream is a dynamic undirected graph. It is not safe for concurrent
// mutation; batches are the concurrency unit, as in the streaming paper.
type Stream struct {
	n        int
	adj      [][]int32 // adj[v]: v's neighbors, ascending, no repeats, never v
	edges    int64
	lastTime int64

	// Snapshot reuse state: prev is the last materialized CSR; dirty
	// marks vertices whose adjacency changed since, dirtyList holds them
	// without an O(n) scan, and sinceSnap counts effective mutations for
	// the snapshot-on-threshold policy.
	prev      *graph.Graph
	dirty     []bool
	dirtyList []int32
	sinceSnap int64
}

// New creates a stream over n vertices and no edges.
func New(n int) *Stream {
	return &Stream{n: n, adj: make([][]int32, n), dirty: make([]bool, n)}
}

// FromGraph builds a stream preloaded with the undirected simple
// projection of g (self loops dropped, directions and duplicates
// collapsed), so an existing static graph can start accepting live
// updates. Each row is copied out of g's sorted CSR row, skipping loops
// and repeats, into one shared array in which row v may grow in place up
// to v's degree in g.
func FromGraph(g *graph.Graph) *Stream {
	if g.Directed() {
		g = g.Undirected()
	}
	s := New(g.NumVertices())
	rowPtr := g.RowPtr()
	arcs := make([]int32, g.NumArcs())
	par.For(s.n, func(v int) {
		row := arcs[rowPtr[v]:rowPtr[v]:rowPtr[v+1]]
		for _, w := range g.Neighbors(int32(v)) {
			if w != int32(v) && (len(row) == 0 || w != row[len(row)-1]) {
				row = append(row, w)
			}
		}
		s.adj[v] = row
	})
	for _, row := range s.adj {
		s.edges += int64(len(row))
	}
	s.edges /= 2
	return s
}

// NumVertices returns the vertex count.
func (s *Stream) NumVertices() int { return s.n }

// NumEdges returns the current undirected edge count.
func (s *Stream) NumEdges() int64 { return s.edges }

// Degree returns the current degree of v.
func (s *Stream) Degree(v int32) int { return len(s.adj[v]) }

// HasEdge reports whether the undirected edge {u,v} is present.
func (s *Stream) HasEdge(u, v int32) bool {
	_, ok := slices.BinarySearch(s.adj[u], v)
	return ok
}

// LastTime returns the timestamp of the most recent accepted update.
func (s *Stream) LastTime() int64 { return s.lastTime }

// Touch advances the stream's last-update timestamp without mutating the
// graph. Warm restarts use it to restore the clock recorded in a durable
// snapshot before replaying the log tail (whose updates carry their own
// timestamps and only ever move the clock forward).
func (s *Stream) Touch(t int64) {
	if t > s.lastTime {
		s.lastTime = t
	}
}

func (s *Stream) check(u, v int32) error {
	if u < 0 || int(u) >= s.n || v < 0 || int(v) >= s.n {
		return fmt.Errorf("stream: edge (%d,%d) outside [0,%d)", u, v, s.n)
	}
	return nil
}

// DirtyVertices returns how many vertices changed since the last
// materialized snapshot (all of them before the first).
func (s *Stream) DirtyVertices() int {
	if s.prev == nil {
		return s.n
	}
	return len(s.dirtyList)
}

// PendingUpdates returns the effective mutations (edges added or removed)
// since the last materialized snapshot.
func (s *Stream) PendingUpdates() int64 { return s.sinceSnap }

// SnapshotDue implements the snapshot-on-threshold policy: it reports
// whether at least threshold effective mutations accumulated since the
// last materialization (or none has happened yet). threshold <= 0 asks
// for a snapshot after every effective batch.
func (s *Stream) SnapshotDue(threshold int64) bool {
	if s.prev == nil {
		return true
	}
	if threshold <= 0 {
		return s.sinceSnap > 0
	}
	return s.sinceSnap >= threshold
}

// insertSorted adds w to an ascending row, reporting whether it was absent.
func insertSorted(row []int32, w int32) ([]int32, bool) {
	i, found := slices.BinarySearch(row, w)
	if found {
		return row, false
	}
	return slices.Insert(row, i, w), true
}

// removeSorted drops w from an ascending row, reporting whether it was
// present.
func removeSorted(row []int32, w int32) ([]int32, bool) {
	i, found := slices.BinarySearch(row, w)
	if !found {
		return row, false
	}
	return slices.Delete(row, i, i+1), true
}

// Snapshot materializes the current graph as a static CSR graph, bridging
// the streaming substrate to every static kernel. The returned graph is
// immutable and safe for concurrent reads while the stream keeps mutating.
//
// After the first call, materialization is incremental: vertices untouched
// since the previous snapshot copy their adjacency run from it, and dirty
// vertices copy their current row, which is already in CSR order.
func (s *Stream) Snapshot() *graph.Graph {
	deg := make([]int64, s.n)
	for v, row := range s.adj {
		deg[v] = int64(len(row))
	}
	dirty := s.dirty
	if s.prev == nil {
		dirty = nil // first materialization builds every vertex
	}
	g, err := graph.IncrementalCSR(s.prev, s.n, deg, dirty, func(v int32, dst []int32) { copy(dst, s.adj[v]) })
	if err != nil {
		// The stream maintains the builder's invariants (degrees match the
		// rows, clean vertices untouched); a failure is a bookkeeping bug.
		panic("stream: snapshot: " + err.Error())
	}
	for _, v := range s.dirtyList {
		s.dirty[v] = false
	}
	s.dirtyList = s.dirtyList[:0]
	s.sinceSnap = 0
	s.prev = g
	return g
}
