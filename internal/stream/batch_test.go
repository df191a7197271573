package stream

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomBatch draws mixed insert/delete updates over n vertices, self
// loops and duplicates included on purpose.
func randomBatch(rng *rand.Rand, n, size int, delFrac float64) []Update {
	batch := make([]Update, size)
	for i := range batch {
		batch[i] = Update{
			U:    int32(rng.Intn(n)),
			V:    int32(rng.Intn(n)),
			Time: rng.Int63n(1 << 20),
			Del:  rng.Float64() < delFrac,
		}
	}
	return batch
}

// TestApplyBatchMatchesSequential is the core differential check: the
// parallel sharded batch path must bit-match the oracle applying the same
// updates one at a time.
func TestApplyBatchMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		par := New(n)
		seq := newOracle(n)
		for round := 0; round < 6; round++ {
			batch := randomBatch(rng, n, 1+rng.Intn(120), 0.3)
			res, err := par.ApplyBatch(batch)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			ins, del := 0, 0
			for _, up := range batch {
				ok, err := seq.Apply(up)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if ok && up.Del {
					del++
				} else if ok {
					ins++
				}
			}
			if res.Inserted != ins || res.Deleted != del {
				t.Fatalf("seed %d: batch counted %+v, sequential %d/%d", seed, res, ins, del)
			}
			sameAsOracle(t, fmt.Sprintf("seed %d round %d", seed, round), par, seq)
		}
	}
}

// TestDifferentialReplay replays many seeded update sequences one update
// per batch against the oracle's sequential Apply and, at every
// 100-update checkpoint, demands the same state and a snapshot with the
// same CSR arrays and edge count.
func TestDifferentialReplay(t *testing.T) {
	sequences := 1000
	if testing.Short() {
		sequences = 100
	}
	const n, updates, checkpoint = 24, 300, 100
	for seed := 0; seed < sequences; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		s, o := New(n), newOracle(n)
		for i := 1; i <= updates; i++ {
			up := Update{
				U:    int32(rng.Intn(n)),
				V:    int32(rng.Intn(n)),
				Time: int64(i),
				Del:  rng.Float64() < 0.25,
			}
			if _, err := s.ApplyBatch([]Update{up}); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if _, err := o.Apply(up); err != nil {
				t.Fatalf("seed %d: oracle: %v", seed, err)
			}
			if i%checkpoint != 0 {
				continue
			}
			step := fmt.Sprintf("seed %d step %d", seed, i)
			sameAsOracle(t, step, s, o)
			snap := s.Snapshot()
			if snap.NumEdges() != s.NumEdges() {
				t.Fatalf("%s: snapshot edges %d, stream %d", step, snap.NumEdges(), s.NumEdges())
			}
			sameSnapshot(t, step, snap, o.Snapshot())
		}
	}
}

// TestApplyBatchAtomicOnError: a batch containing any out-of-range vertex
// is rejected whole, leaving the stream untouched.
func TestApplyBatchAtomicOnError(t *testing.T) {
	s := New(5)
	if _, err := s.ApplyBatch([]Update{{U: 0, V: 1}, {U: 2, V: 3}}); err != nil {
		t.Fatal(err)
	}
	bad := []Update{{U: 1, V: 2}, {U: 0, V: 9}, {U: 3, V: 4}}
	if _, err := s.ApplyBatch(bad); err == nil {
		t.Fatal("out-of-range batch accepted")
	}
	if s.NumEdges() != 2 || s.HasEdge(1, 2) || s.HasEdge(3, 4) {
		t.Fatal("failed batch partially applied")
	}
	if s.PendingUpdates() != 2 {
		t.Fatalf("pending = %d", s.PendingUpdates())
	}
}

// TestApplyBatchRuns exercises ordering inside one batch: an edge
// inserted then deleted (and vice versa) must land in its final state.
func TestApplyBatchRuns(t *testing.T) {
	s := New(4)
	res, err := s.ApplyBatch([]Update{
		{U: 0, V: 1},
		{U: 0, V: 1, Del: true},
		{U: 2, V: 3, Del: true}, // absent: ignored
		{U: 2, V: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 2 || res.Deleted != 1 || res.Ignored != 1 {
		t.Fatalf("res = %+v", res)
	}
	if s.HasEdge(0, 1) || !s.HasEdge(2, 3) || s.NumEdges() != 1 {
		t.Fatal("run ordering violated")
	}
}

// Property (snapshot validity): for arbitrary update sequences with
// duplicates and self loops, Snapshot yields a structurally valid CSR —
// Validate-clean (sorted adjacency rows, in-range ids), symmetric, with
// degrees summing to twice the edge count — and the incremental
// materialization equals a from-scratch one.
func TestPropertySnapshotValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(30)
		s := New(n)
		for round := 0; round < 4; round++ {
			batch := randomBatch(rng, n, rng.Intn(90), 0.35)
			if _, err := s.ApplyBatch(batch); err != nil {
				return false
			}
			snap := s.Snapshot()
			if snap.Validate() != nil || snap.Directed() {
				return false
			}
			var degSum int64
			for v := int32(0); int(v) < n; v++ {
				degSum += int64(snap.Degree(v))
				for _, w := range snap.Neighbors(v) {
					if w == v || !snap.HasEdge(w, v) {
						return false // self loop or asymmetry
					}
				}
			}
			if degSum != 2*snap.NumEdges() || snap.NumEdges() != s.NumEdges() {
				return false
			}
			// Incremental rebuild (dirty-vertex copy path) must equal the
			// from-scratch materialization of the same state.
			full := FromGraph(snap).Snapshot()
			for v := int32(0); int(v) < n; v++ {
				a, b := snap.Neighbors(v), full.Neighbors(v)
				if len(a) != len(b) {
					return false
				}
				for i := range a {
					if a[i] != b[i] {
						return false
					}
				}
			}
		}
		return s.PendingUpdates() == 0 && s.DirtyVertices() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
