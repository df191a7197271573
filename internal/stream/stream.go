// Package stream provides the streaming-graph substrate of the paper's
// companion work (Ediger, Jiang, Riedy, Bader, "Massive streaming data
// analytics: a case study with clustering coefficients", MTAAP 2010),
// which Section V positions as the temporal direction of this analysis:
// social graphs change over time, and recomputing metrics from scratch per
// batch wastes the structure shared between snapshots.
//
// A Stream ingests timestamped interaction edges, keeps each vertex's
// neighbors in one sorted, duplicate-free row (the packed per-vertex
// array of STINGER and of NetworKit's dynamic graph), incrementally tracks
// per-vertex triangle counts (so clustering coefficients are always
// available in O(1)), and can materialize a CSR snapshot for the static
// kernels at any point. Snapshots are incremental: each materialization
// copies the adjacency of untouched vertices from the previous snapshot
// and copies only the rows updates dirtied — already sorted — so
// steady-state snapshot cost tracks the update rate, not the graph size.
//
// Batches are the concurrency unit, as in the streaming paper: ApplyBatch
// parallelizes one batch internally over vertex shards (see batch.go),
// but a Stream accepts only one mutation call at a time — callers
// serialize writers (graphctd holds a per-graph writer lock) while any
// number of readers traverse previously materialized snapshots.
package stream

import (
	"fmt"
	"math/bits"
	"slices"

	"graphct/internal/cluster"
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

// triScale is the fixed-point scale of the internal triangle counters:
// tri6[v] stores 6x the triangles incident on v. Every triangle
// contributes exactly triScale to each of its three corners no matter how
// it is discovered, which lets the batched update (batch.go) credit a
// triangle found from k of its edges with triScale/k per discovery — an
// exact integer for k in {1,2,3} — instead of tracking fractions.
const triScale = 6

// Stream is a dynamic undirected graph with incrementally maintained
// triangle counts. It is not safe for concurrent mutation; batches are the
// concurrency unit, as in the streaming paper.
type Stream struct {
	n        int
	adj      [][]int32 // adj[v]: v's neighbors, ascending, no repeats, never v
	tri6     []int64   // triScale x triangles incident on each vertex
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
	return &Stream{n: n, adj: make([][]int32, n), tri6: make([]int64, n), dirty: make([]bool, n)}
}

// FromGraph builds a stream preloaded with the undirected simple
// projection of g (self loops dropped, directions and duplicates
// collapsed), so an existing static graph can start accepting live
// updates. Each row is copied out of g's sorted CSR row, skipping loops
// and repeats, into one shared array in which row v may grow in place up
// to v's degree in g. Triangle counts are seeded by the static kernel,
// which is defined on the same simple projection.
func FromGraph(g *graph.Graph) *Stream {
	if g.Directed() {
		g = g.Undirected()
	}
	s := New(g.NumVertices())
	rowPtr := g.RowPtr()
	arcs := make([]int32, g.NumArcs())
	par.For(s.n, func(v int) {
		row := arcs[rowPtr[v]:rowPtr[v]:rowPtr[v+1]]
		for it := g.NeighborIter(int32(v)); ; {
			w, ok := it.Next()
			if !ok {
				break
			}
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
	for v, t := range cluster.Triangles(g) {
		s.tri6[v] = triScale * t
	}
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
func (s *Stream) Touch(t int64) { s.touch(t) }

// Insert adds the undirected edge {u,v}. Duplicate edges and self loops
// are ignored (the mention-graph dedup rule). It returns true when the
// edge was new. Triangle counts of u, v and each common neighbor are
// updated incrementally: inserting {u,v} creates one triangle per common
// neighbor.
func (s *Stream) Insert(up Update) (bool, error) { return s.update(up, +1) }

// Delete removes the undirected edge {u,v}, reversing the triangle
// bookkeeping. It returns true when the edge existed.
func (s *Stream) Delete(up Update) (bool, error) { return s.update(up, -1) }

// Apply routes one update by its Del flag.
func (s *Stream) Apply(up Update) (bool, error) {
	if up.Del {
		return s.Delete(up)
	}
	return s.Insert(up)
}

// update applies one insertion (sign +1) or deletion (sign -1). Self
// loops, present inserts and absent deletes only advance the clock;
// otherwise both rows change and every common neighbor w gains or loses
// the triangle {u,v,w}.
func (s *Stream) update(up Update, sign int64) (bool, error) {
	u, v := up.U, up.V
	if err := s.check(u, v); err != nil {
		return false, err
	}
	s.touch(up.Time)
	if u == v {
		return false, nil
	}
	edit := insertSorted
	if sign < 0 {
		edit = removeSorted
	}
	row, ok := edit(s.adj[u], v)
	if !ok {
		return false, nil
	}
	s.adj[u] = row
	s.adj[v], _ = edit(s.adj[v], u)
	var common int64
	forCommon(s.adj[u], s.adj[v], func(w int32) {
		s.tri6[w] += sign * triScale
		common++
	})
	s.tri6[u] += sign * triScale * common
	s.tri6[v] += sign * triScale * common
	s.edges += sign
	s.sinceSnap++
	s.markDirty(u)
	s.markDirty(v)
	return true, nil
}

// InsertBatch applies a batch of insertions one at a time, returning how
// many were new edges. ApplyBatch is the parallel path.
func (s *Stream) InsertBatch(batch []Update) (int, error) {
	added := 0
	for _, up := range batch {
		ok, err := s.Insert(up)
		if err != nil {
			return added, err
		}
		if ok {
			added++
		}
	}
	return added, nil
}

func (s *Stream) check(u, v int32) error {
	if u < 0 || int(u) >= s.n || v < 0 || int(v) >= s.n {
		return fmt.Errorf("stream: edge (%d,%d) outside [0,%d)", u, v, s.n)
	}
	return nil
}

func (s *Stream) touch(t int64) {
	if t > s.lastTime {
		s.lastTime = t
	}
}

// markDirty records that v's adjacency diverged from the last snapshot.
func (s *Stream) markDirty(v int32) {
	if !s.dirty[v] {
		s.dirty[v] = true
		s.dirtyList = append(s.dirtyList, v)
	}
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

// forCommon calls f for every vertex in both ascending rows a and b: by
// merging them, or — when the shorter row is under a log factor of the
// longer, as for a hub and a leaf — by binary searches of the longer row,
// each starting where the last one ended.
func forCommon(a, b []int32, f func(w int32)) {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a)*bits.Len(uint(len(b))) < len(b) {
		for _, w := range a {
			i, ok := slices.BinarySearch(b, w)
			if ok {
				f(w)
			}
			b = b[i:]
		}
		return
	}
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			f(a[i])
			i++
			j++
		}
	}
}

// Triangles returns the current per-vertex triangle counts (aliased copy).
func (s *Stream) Triangles() []int64 {
	out := make([]int64, s.n)
	for v, t := range s.tri6 {
		out[v] = t / triScale
	}
	return out
}

// Coefficient returns v's current local clustering coefficient in O(1)
// from the maintained triangle count.
func (s *Stream) Coefficient(v int32) float64 {
	d := int64(len(s.adj[v]))
	if d < 2 {
		return 0
	}
	return 2 * float64(s.tri6[v]/triScale) / float64(d*(d-1))
}

// GlobalCoefficient returns the current transitivity.
func (s *Stream) GlobalCoefficient() float64 {
	var closed, wedges int64
	for v := 0; v < s.n; v++ {
		closed += s.tri6[v] / triScale
		d := int64(len(s.adj[v]))
		wedges += d * (d - 1) / 2
	}
	if wedges == 0 {
		return 0
	}
	return float64(closed) / float64(wedges)
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
