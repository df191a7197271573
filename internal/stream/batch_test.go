package stream

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphct/internal/cluster"
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

// assertStreamsEqual verifies two streams agree on every observable:
// edges, adjacency, triangle counts and coefficients.
func assertStreamsEqual(t *testing.T, got, want *Stream) {
	t.Helper()
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("edges %d != %d", got.NumEdges(), want.NumEdges())
	}
	for v := int32(0); int(v) < want.n; v++ {
		if got.Degree(v) != want.Degree(v) {
			t.Fatalf("degree(%d) %d != %d", v, got.Degree(v), want.Degree(v))
		}
		for _, w := range want.adj[v] {
			if !got.HasEdge(v, w) {
				t.Fatalf("missing edge {%d,%d}", v, w)
			}
		}
		if got.tri6[v] != want.tri6[v] {
			t.Fatalf("tri6(%d) %d != %d", v, got.tri6[v], want.tri6[v])
		}
	}
}

// TestApplyBatchMatchesSequential is the core differential check: the
// parallel sharded batch path must bit-match applying the same updates
// one at a time.
func TestApplyBatchMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		par := New(n)
		seq := New(n)
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
			assertStreamsEqual(t, par, seq)
			if par.LastTime() != seq.LastTime() {
				t.Fatalf("seed %d: LastTime %d != %d", seed, par.LastTime(), seq.LastTime())
			}
		}
	}
}

// TestDifferentialReplay replays many seeded update sequences and, at
// every 100-update checkpoint, demands that the incrementally maintained
// per-vertex clustering coefficients and edge counts bit-match a
// from-scratch internal/cluster computation over a materialized snapshot.
func TestDifferentialReplay(t *testing.T) {
	sequences := 1000
	if testing.Short() {
		sequences = 100
	}
	const n, updates, checkpoint = 24, 300, 100
	for seed := 0; seed < sequences; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		s := New(n)
		for i := 1; i <= updates; i++ {
			up := Update{
				U:    int32(rng.Intn(n)),
				V:    int32(rng.Intn(n)),
				Time: int64(i),
				Del:  rng.Float64() < 0.25,
			}
			if _, err := s.Apply(up); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if i%checkpoint != 0 {
				continue
			}
			snap := s.Snapshot()
			if snap.NumEdges() != s.NumEdges() {
				t.Fatalf("seed %d step %d: snapshot edges %d, stream %d",
					seed, i, snap.NumEdges(), s.NumEdges())
			}
			want := cluster.Coefficients(snap)
			for v := int32(0); v < n; v++ {
				if got := coefficient(s, v); got != want[v] {
					t.Fatalf("seed %d step %d: coefficient(%d) = %v, from scratch %v",
						seed, i, v, got, want[v])
				}
			}
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

// TestFromGraphSeedsTriangles: a stream seeded from a static graph starts
// with the static kernel's triangle counts and keeps them consistent
// through further updates.
func TestFromGraphSeedsTriangles(t *testing.T) {
	base := New(12)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		base.Insert(Update{U: int32(rng.Intn(12)), V: int32(rng.Intn(12)), Time: int64(i)})
	}
	snap := base.Snapshot()
	s := FromGraph(snap)
	if s.NumEdges() != snap.NumEdges() {
		t.Fatalf("edges %d != %d", s.NumEdges(), snap.NumEdges())
	}
	want := cluster.Triangles(snap)
	got := s.Triangles()
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("tri(%d) = %d, want %d", v, got[v], want[v])
		}
	}
	s.Insert(Update{U: 0, V: 1, Time: 100})
	s.Delete(Update{U: 0, V: 1, Time: 101})
	assertStreamsEqual(t, s, FromGraph(s.Snapshot()))
}
