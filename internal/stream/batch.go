package stream

import (
	"cmp"
	"slices"
	"sync/atomic"

	"graphct/internal/failpoint"
	"graphct/internal/par"
)

// BatchResult summarizes one ApplyBatch call.
type BatchResult struct {
	Inserted int // updates that added a new edge
	Deleted  int // updates that removed an existing edge
	Ignored  int // self loops, duplicate inserts, deletes of absent edges
}

// pair is an edge normalized to lo < hi.
type pair struct{ lo, hi int32 }

func (p pair) key() int64 { return int64(p.lo)<<32 | int64(uint32(p.hi)) }

func cmpPair(a, b pair) int { return cmp.Compare(a.key(), b.key()) }

// ApplyBatch applies a batch of updates, parallelizing the work inside the
// batch while leaving the stream's single-writer contract to the caller
// (graphctd serializes batches per graph under a writer lock).
//
// The whole batch is validated before anything mutates, so an error means
// the stream is unchanged. The batch is then split into maximal runs of
// same-op updates (inserts accrete, deletes reverse; runs preserve the
// caller's op ordering). Inside a run only each edge's presence matters, so
// the run is first reduced to its distinct edges in ascending order — an
// in-run duplicate is the adjacent repeat the sort removes. Each run is
// then applied in phases:
//
//  1. row mutation, parallel over vertex shards: every vertex belongs to
//     exactly one shard, and each shard inserts into (or deletes from) only
//     the sorted rows it owns, by binary search. Both endpoint shards of an
//     edge see the same pre-state, so they reach the same new/duplicate
//     verdict independently, keeping the rows symmetric without
//     cross-shard coordination; the lo endpoint's verdict is recorded;
//  2. triangle maintenance, parallel over the run's effective edges with
//     atomic adds: each edge intersects its endpoint rows, and a triangle
//     whose membership changed is discovered once from each of its k
//     changed edges (k is read by binary search in the sorted run), each
//     discovery contributing triScale/k per corner — summing to exactly
//     triScale (one triangle) no matter how many batch edges it shares.
//     This is the streaming paper's batched clustering-coefficient update,
//     kept in integers by the fixed-point counter.
//
// Deletions run phase 2 first, while the rows still hold the edges. The
// result bit-matches applying the same updates one at a time.
func (s *Stream) ApplyBatch(batch []Update) (BatchResult, error) {
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
		run := normalize(batch[lo:hi])
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

// normalize orients each update's endpoints lo < hi, drops self loops and
// returns the run's distinct edges in ascending order.
func normalize(run []Update) []pair {
	out := make([]pair, 0, len(run))
	for _, up := range run {
		switch {
		case up.U < up.V:
			out = append(out, pair{up.U, up.V})
		case up.U > up.V:
			out = append(out, pair{up.V, up.U})
		}
	}
	slices.SortFunc(out, cmpPair)
	return slices.Compact(out)
}

// shardCount picks a power-of-two shard count with a few shards per
// worker, so the dynamic scheduler can balance skewed per-shard work.
func shardCount() int {
	s := 1
	for s < 4*par.Workers() {
		s <<= 1
	}
	return s
}

// bucketize returns, per shard, the run indices touching a vertex that
// shard owns, in run order. An edge whose endpoints share a shard appears
// once in that shard's bucket.
func bucketize(run []pair, shards int) [][]int32 {
	buckets := make([][]int32, shards)
	mask := int32(shards - 1)
	for i, e := range run {
		a, b := e.lo&mask, e.hi&mask
		buckets[a] = append(buckets[a], int32(i))
		if b != a {
			buckets[b] = append(buckets[b], int32(i))
		}
	}
	return buckets
}

// insertRun applies one run of insertions and returns the new-edge count.
func (s *Stream) insertRun(run []pair) int {
	fresh := s.editRows(run, insertSorted)
	s.edges += int64(len(fresh))
	s.sinceSnap += int64(len(fresh))
	s.triangleDelta(fresh, +1)
	return len(fresh)
}

// deleteRun applies one run of deletions and returns the removed count.
func (s *Stream) deleteRun(run []pair) int {
	gone := slices.DeleteFunc(run, func(e pair) bool { return !s.HasEdge(e.lo, e.hi) })
	s.triangleDelta(gone, -1)
	s.editRows(gone, removeSorted)
	s.edges -= int64(len(gone))
	s.sinceSnap += int64(len(gone))
	return len(gone)
}

// editRows is phase 1: it applies edit to both endpoint rows of every run
// edge, in parallel over vertex shards, marks the vertices whose row
// changed dirty, and returns the run edges whose edit took effect, still
// in ascending order. It reuses run's storage for the result.
func (s *Stream) editRows(run []pair, edit func(row []int32, w int32) ([]int32, bool)) []pair {
	if len(run) == 0 {
		return run
	}
	shards := shardCount()
	mask := int32(shards - 1)
	buckets := bucketize(run, shards)
	took := make([]bool, len(run))
	dirtied := make([][]int32, shards)
	par.ForChunked(shards, 1, func(sLo, sHi int) {
		for sid := sLo; sid < sHi; sid++ {
			for _, i := range buckets[sid] {
				e := run[i]
				for _, v := range [2]int32{e.lo, e.hi} {
					if v&mask != int32(sid) {
						continue
					}
					row, ok := edit(s.adj[v], e.lo^e.hi^v) // the other endpoint
					if !ok {
						continue
					}
					s.adj[v] = row
					if v == e.lo {
						took[i] = true
					}
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
	out := run[:0]
	for i, e := range run {
		if took[i] {
			out = append(out, e)
		}
	}
	return out
}

// triangleDelta applies the batched triangle correction for the changed
// edges (distinct, ascending): for inserts (sign +1) the rows already hold
// the run's new edges; for deletes (sign -1) they still hold the edges
// being removed. A triangle with k changed edges is discovered from each
// of them; each discovery credits triScale/k per corner so the triangle
// nets exactly one count at every corner.
func (s *Stream) triangleDelta(changed []pair, sign int64) {
	if len(changed) == 0 {
		return
	}
	inRun := func(a, b int32) int64 {
		if _, ok := slices.BinarySearchFunc(changed, pair{min(a, b), max(a, b)}, cmpPair); ok {
			return 1
		}
		return 0
	}
	par.ForChunked(len(changed), 32, func(lo, hi int) {
		for _, e := range changed[lo:hi] {
			forCommon(s.adj[e.lo], s.adj[e.hi], func(w int32) {
				d := sign * (triScale / (1 + inRun(e.lo, w) + inRun(e.hi, w)))
				atomic.AddInt64(&s.tri6[e.lo], d)
				atomic.AddInt64(&s.tri6[e.hi], d)
				atomic.AddInt64(&s.tri6[w], d)
			})
		}
	})
}
