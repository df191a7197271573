package stream

import (
	"math/rand"
	"testing"

	"graphct/internal/gen"
	"graphct/internal/graph"
)

// apply applies one batch, failing the test on a validation error.
func apply(t *testing.T, s *Stream, batch ...Update) BatchResult {
	t.Helper()
	res, err := s.ApplyBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestInsertBasics(t *testing.T) {
	s := New(4)
	if res := apply(t, s, Update{U: 0, V: 1, Time: 1}); res.Inserted != 1 {
		t.Fatalf("insert: %+v", res)
	}
	if !s.HasEdge(0, 1) || !s.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if s.NumEdges() != 1 || s.Degree(0) != 1 {
		t.Fatal("bookkeeping wrong")
	}
	// Duplicate and self loop are no-ops.
	if res := apply(t, s, Update{U: 1, V: 0, Time: 2}); res.Ignored != 1 {
		t.Fatal("duplicate accepted")
	}
	if res := apply(t, s, Update{U: 2, V: 2, Time: 3}); res.Ignored != 1 {
		t.Fatal("self loop accepted")
	}
	if s.LastTime() != 3 {
		t.Fatalf("LastTime = %d", s.LastTime())
	}
}

func TestInsertRangeError(t *testing.T) {
	s := New(2)
	if _, err := s.ApplyBatch([]Update{{U: 0, V: 5}}); err == nil {
		t.Fatal("out of range accepted")
	}
	if _, err := s.ApplyBatch([]Update{{U: -1, V: 0, Del: true}}); err == nil {
		t.Fatal("negative accepted")
	}
}

func TestSnapshotMatchesStatic(t *testing.T) {
	s := New(30)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 150; i++ {
		apply(t, s, Update{U: int32(rng.Intn(30)), V: int32(rng.Intn(30)), Time: int64(i)})
	}
	snap := s.Snapshot()
	if err := snap.Validate(); err != nil {
		t.Fatal(err)
	}
	if snap.NumEdges() != s.NumEdges() {
		t.Fatalf("snapshot edges %d != %d", snap.NumEdges(), s.NumEdges())
	}
	for v := int32(0); v < 30; v++ {
		if snap.Degree(v) != s.Degree(v) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
}

func TestSnapshotFeedsStaticKernels(t *testing.T) {
	// A streamed ring snapshot behaves like a generated ring.
	s := New(10)
	for v := 0; v < 10; v++ {
		apply(t, s, Update{U: int32(v), V: int32((v + 1) % 10)})
	}
	snap := s.Snapshot()
	want := gen.Ring(10)
	if snap.NumEdges() != want.NumEdges() {
		t.Fatal("ring snapshot wrong")
	}
	var g *graph.Graph = snap
	if g.MaxDegree() != 2 {
		t.Fatal("ring degrees wrong")
	}
}
