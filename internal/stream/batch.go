package stream

import (
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

// ApplyBatch applies a batch of updates, parallelizing the work inside the
// batch while leaving the stream's single-writer contract to the caller
// (graphctd serializes batches per graph under a writer lock).
//
// The whole batch is validated before anything mutates, so an error means
// the stream is unchanged. The batch is then split into maximal runs of
// same-op updates (inserts accrete, deletes reverse; runs preserve the
// caller's op ordering). Each run's rows are edited in parallel over vertex
// shards: every vertex belongs to exactly one shard, and each shard inserts
// into (or deletes from) only the sorted rows it owns, by binary search,
// walking the run's edges in run order. Both endpoint shards of an edge see
// the same pre-state and the same earlier repeats, so they reach the same
// present/absent verdict independently, keeping the rows symmetric without
// cross-shard coordination; the lo endpoint's verdict is the one counted,
// and an in-run repeat finds its first occurrence's edit already made.
//
// The result bit-matches applying the same updates one at a time.
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
		if batch[lo].Del {
			res.Deleted += s.editRun(batch[lo:hi], removeSorted)
		} else {
			res.Inserted += s.editRun(batch[lo:hi], insertSorted)
		}
		lo = hi
	}
	res.Ignored = len(batch) - res.Inserted - res.Deleted
	s.edges += int64(res.Inserted - res.Deleted)
	s.sinceSnap += int64(res.Inserted + res.Deleted)
	s.lastTime = maxTime
	return res, nil
}

// normalize orients each update's endpoints lo < hi and drops self loops.
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
	return out
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

// editRun applies edit to both endpoint rows of every edge of one same-op
// run, in parallel over vertex shards, marks the vertices whose row
// changed dirty, and returns how many edges the edit took effect on.
func (s *Stream) editRun(updates []Update, edit func(row []int32, w int32) ([]int32, bool)) int {
	run := normalize(updates)
	if len(run) == 0 {
		return 0
	}
	shards := shardCount()
	mask := int32(shards - 1)
	buckets := bucketize(run, shards)
	took := make([]int, shards)
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
						took[sid]++
					}
					if !s.dirty[v] {
						s.dirty[v] = true
						dirtied[sid] = append(dirtied[sid], v)
					}
				}
			}
		}
	})
	n := 0
	for sid, part := range dirtied {
		s.dirtyList = append(s.dirtyList, part...)
		n += took[sid]
	}
	return n
}
