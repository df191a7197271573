package stream

// The map-based Stream this package shipped before sorted adjacency rows,
// kept verbatim as the differential oracle for differential_test.go —
// renamed to oracleStream (normalize to oracleNormalize), with one line
// added: its snapshot fill sorts each row, since IncrementalCSR now takes
// rows in ascending order.

import (
	"fmt"
	"slices"
	"sync/atomic"

	"graphct/internal/cluster"
	"graphct/internal/failpoint"
	"graphct/internal/graph"
	"graphct/internal/par"
)

// oracleStream is a dynamic undirected graph with incrementally maintained
// triangle counts. It is not safe for concurrent mutation; batches are the
// concurrency unit, as in the streaming paper.
type oracleStream struct {
	n        int
	adj      []map[int32]struct{}
	tri6     []int64 // triScale x triangles incident on each vertex
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

// newOracle creates a stream over n vertices and no edges.
func newOracle(n int) *oracleStream {
	s := &oracleStream{
		n:     n,
		adj:   make([]map[int32]struct{}, n),
		tri6:  make([]int64, n),
		dirty: make([]bool, n),
	}
	for i := range s.adj {
		s.adj[i] = make(map[int32]struct{})
	}
	return s
}

// oracleFromGraph builds a stream preloaded with the undirected simple
// projection of g (self loops dropped, directions and duplicates
// collapsed), so an existing static graph can start accepting live
// updates. Triangle counts are seeded by the static kernel, which is
// defined on the same simple projection.
func oracleFromGraph(g *graph.Graph) *oracleStream {
	if g.Directed() {
		g = g.Undirected()
	}
	s := newOracle(g.NumVertices())
	var buf []int32
	for v := 0; v < s.n; v++ {
		prev := int32(v) // rows are sorted: skips w <= v, then repeats of w
		for _, w := range g.NeighborsInto(&buf, int32(v)) {
			if w <= prev {
				continue
			}
			prev = w
			s.adj[v][w] = struct{}{}
			s.adj[w][int32(v)] = struct{}{}
			s.edges++
		}
	}
	for v, t := range cluster.Triangles(g) {
		s.tri6[v] = triScale * t
	}
	return s
}

// HasEdge reports whether the undirected edge {u,v} is present.
func (s *oracleStream) HasEdge(u, v int32) bool {
	_, ok := s.adj[u][v]
	return ok
}

// Insert adds the undirected edge {u,v}. Duplicate edges and self loops
// are ignored (the mention-graph dedup rule). It returns true when the
// edge was new. Triangle counts of u, v and each common neighbor are
// updated incrementally: inserting {u,v} creates one triangle per common
// neighbor.
func (s *oracleStream) Insert(up Update) (bool, error) {
	u, v := up.U, up.V
	if err := s.check(u, v); err != nil {
		return false, err
	}
	if u == v || s.HasEdge(u, v) {
		s.touch(up.Time)
		return false, nil
	}
	common := s.commonNeighbors(u, v)
	for _, w := range common {
		s.tri6[w] += triScale
	}
	s.tri6[u] += triScale * int64(len(common))
	s.tri6[v] += triScale * int64(len(common))
	s.adj[u][v] = struct{}{}
	s.adj[v][u] = struct{}{}
	s.edges++
	s.sinceSnap++
	s.markDirty(u)
	s.markDirty(v)
	s.touch(up.Time)
	return true, nil
}

// Delete removes the undirected edge {u,v}, reversing the triangle
// bookkeeping. It returns true when the edge existed.
func (s *oracleStream) Delete(up Update) (bool, error) {
	u, v := up.U, up.V
	if err := s.check(u, v); err != nil {
		return false, err
	}
	if u == v || !s.HasEdge(u, v) {
		s.touch(up.Time)
		return false, nil
	}
	delete(s.adj[u], v)
	delete(s.adj[v], u)
	s.edges--
	s.sinceSnap++
	s.markDirty(u)
	s.markDirty(v)
	common := s.commonNeighbors(u, v)
	for _, w := range common {
		s.tri6[w] -= triScale
	}
	s.tri6[u] -= triScale * int64(len(common))
	s.tri6[v] -= triScale * int64(len(common))
	s.touch(up.Time)
	return true, nil
}

// Apply routes one update by its Del flag.
func (s *oracleStream) Apply(up Update) (bool, error) {
	if up.Del {
		return s.Delete(up)
	}
	return s.Insert(up)
}

func (s *oracleStream) check(u, v int32) error {
	if u < 0 || int(u) >= s.n || v < 0 || int(v) >= s.n {
		return fmt.Errorf("stream: edge (%d,%d) outside [0,%d)", u, v, s.n)
	}
	return nil
}

func (s *oracleStream) touch(t int64) {
	if t > s.lastTime {
		s.lastTime = t
	}
}

// markDirty records that v's adjacency diverged from the last snapshot.
func (s *oracleStream) markDirty(v int32) {
	if !s.dirty[v] {
		s.dirty[v] = true
		s.dirtyList = append(s.dirtyList, v)
	}
}

// DirtyVertices returns how many vertices changed since the last
// materialized snapshot (all of them before the first).
func (s *oracleStream) DirtyVertices() int {
	if s.prev == nil {
		return s.n
	}
	return len(s.dirtyList)
}

// commonNeighbors returns vertices adjacent to both u and v, iterating
// the smaller adjacency set.
func (s *oracleStream) commonNeighbors(u, v int32) []int32 {
	a, b := u, v
	if len(s.adj[a]) > len(s.adj[b]) {
		a, b = b, a
	}
	var out []int32
	for w := range s.adj[a] {
		if _, ok := s.adj[b][w]; ok {
			out = append(out, w)
		}
	}
	return out
}

// Snapshot materializes the current graph as a static CSR graph, bridging
// the streaming substrate to every static kernel. The returned graph is
// immutable and safe for concurrent reads while the stream keeps mutating.
//
// After the first call, materialization is incremental: vertices untouched
// since the previous snapshot copy their adjacency run from it, and only
// dirty vertices are re-collected and re-sorted from the dynamic sets.
func (s *oracleStream) Snapshot() *graph.Graph {
	deg := make([]int64, s.n)
	for v := range s.adj {
		deg[v] = int64(len(s.adj[v]))
	}
	dirty := s.dirty
	if s.prev == nil {
		dirty = nil // first materialization builds every vertex
	}
	g, err := graph.IncrementalCSR(s.prev, s.n, deg, dirty, func(v int32, dst []int32) {
		i := 0
		for w := range s.adj[v] {
			dst[i] = w
			i++
		}
		slices.Sort(dst)
	})
	if err != nil {
		// The stream maintains the builder's invariants (degrees match the
		// sets, clean vertices untouched); a failure is a bookkeeping bug.
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

// ApplyBatch applies a batch of updates, parallelizing the work inside the
// batch while leaving the stream's single-writer contract to the caller
// (graphctd serializes batches per graph under a writer lock).
//
// The whole batch is validated before anything mutates, so an error means
// the stream is unchanged. The batch is then split into maximal runs of
// same-op updates (inserts accrete, deletes reverse; runs preserve the
// caller's op ordering). Each run is applied in phases:
//
//  1. adjacency mutation, parallel over vertex shards: every vertex
//     belongs to exactly one shard, each shard scans the run entries
//     touching its vertices in batch order and mutates only the adjacency
//     sets it owns. Both endpoint shards of an edge see the same
//     pre-state and the same in-run duplicate history, so they reach the
//     same new/duplicate verdict independently, keeping the sets
//     symmetric without cross-shard coordination;
//  2. triangle maintenance, parallel over the run's effective edges with
//     atomic adds: a triangle whose membership changed is discovered once
//     from each of its k changed edges, and each discovery contributes
//     triScale/k per corner — summing to exactly triScale (one triangle)
//     no matter how many batch edges it shares. This is the streaming
//     paper's batched clustering-coefficient update, kept in integers by
//     the fixed-point counter.
//
// The result bit-matches applying the same updates one at a time.
func (s *oracleStream) ApplyBatch(batch []Update) (BatchResult, error) {
	// Injection point for the chaos harness: firing here, before any
	// validation or mutation, guarantees an injected failure leaves the
	// stream unchanged — the property idempotent retries rely on.
	if err := failpoint.Eval(failpoint.StreamApply); err != nil {
		return BatchResult{}, err
	}
	var res BatchResult
	maxTime := s.lastTime
	for _, up := range batch {
		if err := s.check(up.U, up.V); err != nil {
			return BatchResult{}, err
		}
		if up.Time > maxTime {
			maxTime = up.Time
		}
	}
	for lo := 0; lo < len(batch); {
		hi := lo + 1
		for hi < len(batch) && batch[hi].Del == batch[lo].Del {
			hi++
		}
		run := oracleNormalize(batch[lo:hi])
		if batch[lo].Del {
			res.Deleted += s.deleteRun(run)
		} else {
			res.Inserted += s.insertRun(run)
		}
		lo = hi
	}
	res.Ignored = len(batch) - res.Inserted - res.Deleted
	s.lastTime = maxTime
	return res, nil
}

// oracleNormalize orients each update's endpoints lo < hi and drops self
// loops.
func oracleNormalize(run []Update) []pair {
	out := make([]pair, 0, len(run))
	for _, up := range run {
		switch {
		case up.U < up.V:
			out = append(out, pair{up.U, up.V})
		case up.U > up.V:
			out = append(out, pair{up.V, up.U})
		}
	}
	return out
}

// insertRun applies one run of insertions and returns the new-edge count.
func (s *oracleStream) insertRun(run []pair) int {
	if len(run) == 0 {
		return 0
	}
	shards := shardCount()
	mask := int32(shards - 1)
	buckets := bucketize(run, shards)

	// Phase 1: sharded adjacency mutation. The lo-side shard doubles as
	// the edge's owner, recording effective (new) edges exactly once.
	newEdges := make([][]pair, shards)
	dirtied := make([][]int32, shards)
	par.ForChunked(shards, 1, func(sLo, sHi int) {
		for sid := sLo; sid < sHi; sid++ {
			for _, i := range buckets[sid] {
				e := run[i]
				if e.lo&mask == int32(sid) {
					if _, dup := s.adj[e.lo][e.hi]; !dup {
						s.adj[e.lo][e.hi] = struct{}{}
						newEdges[sid] = append(newEdges[sid], e)
						if !s.dirty[e.lo] {
							s.dirty[e.lo] = true
							dirtied[sid] = append(dirtied[sid], e.lo)
						}
					}
				}
				if e.hi&mask == int32(sid) {
					if _, dup := s.adj[e.hi][e.lo]; !dup {
						s.adj[e.hi][e.lo] = struct{}{}
						if !s.dirty[e.hi] {
							s.dirty[e.hi] = true
							dirtied[sid] = append(dirtied[sid], e.hi)
						}
					}
				}
			}
		}
	})
	fresh := s.mergeShardState(newEdges, dirtied)
	s.edges += int64(len(fresh))
	s.sinceSnap += int64(len(fresh))

	// Phase 2: batched triangle update over the post-insert adjacency.
	s.triangleDelta(fresh, +1)
	return len(fresh)
}

// deleteRun applies one run of deletions and returns the removed count.
func (s *oracleStream) deleteRun(run []pair) int {
	if len(run) == 0 {
		return 0
	}
	shards := shardCount()
	mask := int32(shards - 1)
	buckets := bucketize(run, shards)

	// Phase 1: each edge's owner shard decides which deletions take
	// effect (edge present and not already claimed by an earlier run
	// entry), without mutating — the triangle update needs the pre-delete
	// adjacency.
	removed := make([][]pair, shards)
	par.ForChunked(shards, 1, func(sLo, sHi int) {
		for sid := sLo; sid < sHi; sid++ {
			var claimed map[int64]struct{}
			for _, i := range buckets[sid] {
				e := run[i]
				if e.lo&mask != int32(sid) {
					continue
				}
				if _, ok := s.adj[e.lo][e.hi]; !ok {
					continue
				}
				if claimed == nil {
					claimed = make(map[int64]struct{})
				}
				if _, dup := claimed[e.key()]; dup {
					continue
				}
				claimed[e.key()] = struct{}{}
				removed[sid] = append(removed[sid], e)
			}
		}
	})
	var gone []pair
	for _, part := range removed {
		gone = append(gone, part...)
	}
	if len(gone) == 0 {
		return 0
	}

	// Phase 2: subtract destroyed triangles against the pre-delete state.
	s.triangleDelta(gone, -1)

	// Phase 3: sharded removal. Re-bucket just the effective deletions;
	// each shard deletes the adjacency entries of the vertices it owns.
	dirtied := make([][]int32, shards)
	goneBuckets := bucketize(gone, shards)
	par.ForChunked(shards, 1, func(sLo, sHi int) {
		for sid := sLo; sid < sHi; sid++ {
			for _, i := range goneBuckets[sid] {
				e := gone[i]
				for _, v := range [2]int32{e.lo, e.hi} {
					if v&mask != int32(sid) {
						continue
					}
					o := e.lo ^ e.hi ^ v // the other endpoint
					delete(s.adj[v], o)
					if !s.dirty[v] {
						s.dirty[v] = true
						dirtied[sid] = append(dirtied[sid], v)
					}
				}
			}
		}
	})
	for _, part := range dirtied {
		s.dirtyList = append(s.dirtyList, part...)
	}
	s.edges -= int64(len(gone))
	s.sinceSnap += int64(len(gone))
	return len(gone)
}

// mergeShardState folds per-shard new-edge and dirty lists into the
// stream's sequential bookkeeping.
func (s *oracleStream) mergeShardState(newEdges [][]pair, dirtied [][]int32) []pair {
	var fresh []pair
	for _, part := range newEdges {
		fresh = append(fresh, part...)
	}
	for _, part := range dirtied {
		s.dirtyList = append(s.dirtyList, part...)
	}
	return fresh
}

// triangleDelta applies the batched triangle correction for the changed
// edges: for inserts (sign +1) the adjacency already holds the run's new
// edges; for deletes (sign -1) it still holds the edges being removed. A
// triangle with k changed edges is discovered from each of them; each
// discovery credits triScale/k per corner so the triangle nets exactly
// one count at every corner.
func (s *oracleStream) triangleDelta(changed []pair, sign int64) {
	if len(changed) == 0 {
		return
	}
	inRun := make(map[int64]struct{}, len(changed))
	for _, e := range changed {
		inRun[e.key()] = struct{}{}
	}
	isChanged := func(a, b int32) int64 {
		p := pair{a, b}
		if a > b {
			p = pair{b, a}
		}
		if _, ok := inRun[p.key()]; ok {
			return 1
		}
		return 0
	}
	par.ForChunked(len(changed), 32, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			e := changed[i]
			u, v := e.lo, e.hi
			if len(s.adj[u]) > len(s.adj[v]) {
				u, v = v, u
			}
			for w := range s.adj[u] {
				if _, ok := s.adj[v][w]; !ok {
					continue
				}
				k := 1 + isChanged(e.lo, w) + isChanged(e.hi, w)
				d := sign * (triScale / k)
				atomic.AddInt64(&s.tri6[e.lo], d)
				atomic.AddInt64(&s.tri6[e.hi], d)
				atomic.AddInt64(&s.tri6[w], d)
			}
		}
	})
}
