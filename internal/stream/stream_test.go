package stream

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphct/internal/cluster"
	"graphct/internal/gen"
	"graphct/internal/graph"
)

func TestInsertBasics(t *testing.T) {
	s := New(4)
	ok, err := s.Insert(Update{U: 0, V: 1, Time: 1})
	if err != nil || !ok {
		t.Fatalf("insert: %v %v", ok, err)
	}
	if !s.HasEdge(0, 1) || !s.HasEdge(1, 0) {
		t.Fatal("edge not symmetric")
	}
	if s.NumEdges() != 1 || s.Degree(0) != 1 {
		t.Fatal("bookkeeping wrong")
	}
	// Duplicate and self loop are no-ops.
	if ok, _ := s.Insert(Update{U: 1, V: 0, Time: 2}); ok {
		t.Fatal("duplicate accepted")
	}
	if ok, _ := s.Insert(Update{U: 2, V: 2, Time: 3}); ok {
		t.Fatal("self loop accepted")
	}
	if s.LastTime() != 3 {
		t.Fatalf("LastTime = %d", s.LastTime())
	}
}

func TestInsertRangeError(t *testing.T) {
	s := New(2)
	if _, err := s.Insert(Update{U: 0, V: 5}); err == nil {
		t.Fatal("out of range accepted")
	}
	if _, err := s.Delete(Update{U: -1, V: 0}); err == nil {
		t.Fatal("negative accepted")
	}
}

func TestTriangleMaintenanceOnInsert(t *testing.T) {
	s := New(4)
	s.Insert(Update{U: 0, V: 1})
	s.Insert(Update{U: 1, V: 2})
	if got := s.Triangles(); got[0] != 0 || got[1] != 0 {
		t.Fatal("premature triangles")
	}
	s.Insert(Update{U: 2, V: 0}) // closes triangle {0,1,2}
	tri := s.Triangles()
	for v := 0; v < 3; v++ {
		if tri[v] != 1 {
			t.Fatalf("tri = %v", tri)
		}
	}
	s.Insert(Update{U: 1, V: 3})
	s.Insert(Update{U: 3, V: 0}) // closes {0,1,3}
	tri = s.Triangles()
	if tri[0] != 2 || tri[1] != 2 || tri[2] != 1 || tri[3] != 1 {
		t.Fatalf("tri = %v", tri)
	}
}

func TestTriangleMaintenanceOnDelete(t *testing.T) {
	s := New(3)
	s.Insert(Update{U: 0, V: 1})
	s.Insert(Update{U: 1, V: 2})
	s.Insert(Update{U: 2, V: 0})
	ok, err := s.Delete(Update{U: 1, V: 2, Time: 9})
	if err != nil || !ok {
		t.Fatal("delete failed")
	}
	for v, tr := range s.Triangles() {
		if tr != 0 {
			t.Fatalf("tri[%d] = %d after delete", v, tr)
		}
	}
	if s.NumEdges() != 2 {
		t.Fatalf("edges = %d", s.NumEdges())
	}
	if ok, _ := s.Delete(Update{U: 1, V: 2}); ok {
		t.Fatal("double delete accepted")
	}
}

// coefficient is v's local clustering coefficient from the maintained
// triangle count, the quantity cluster.Coefficients computes from scratch.
func coefficient(s *Stream, v int32) float64 {
	d := int64(len(s.adj[v]))
	if d < 2 {
		return 0
	}
	return 2 * float64(s.tri6[v]/triScale) / float64(d*(d-1))
}

func TestCoefficients(t *testing.T) {
	s := New(4)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {2, 0}, {2, 3}} {
		s.Insert(Update{U: e[0], V: e[1]})
	}
	if got := coefficient(s, 0); got != 1 {
		t.Fatalf("coef(0) = %v", got)
	}
	if got := coefficient(s, 2); got != 1.0/3 {
		t.Fatalf("coef(2) = %v", got)
	}
	if got := coefficient(s, 3); got != 0 {
		t.Fatalf("coef(3) = %v", got)
	}
	if s.GlobalCoefficient() <= 0 {
		t.Fatal("global coefficient zero")
	}
	if New(2).GlobalCoefficient() != 0 {
		t.Fatal("empty global coefficient")
	}
}

func TestSnapshotMatchesStatic(t *testing.T) {
	s := New(30)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 150; i++ {
		s.Insert(Update{U: int32(rng.Intn(30)), V: int32(rng.Intn(30)), Time: int64(i)})
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

// Property: after any insert/delete sequence, the incrementally maintained
// triangle counts equal the static kernel's counts on a snapshot.
func TestPropertyIncrementalMatchesStatic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(20)
		type edge struct{ u, v int32 }
		var present []edge
		for i := 0; i < 200; i++ {
			u, v := int32(rng.Intn(20)), int32(rng.Intn(20))
			if rng.Float64() < 0.7 || len(present) == 0 {
				if ok, err := s.Insert(Update{U: u, V: v, Time: int64(i)}); err != nil {
					return false
				} else if ok {
					present = append(present, edge{u, v})
				}
			} else {
				k := rng.Intn(len(present))
				e := present[k]
				if ok, err := s.Delete(Update{U: e.u, V: e.v, Time: int64(i)}); err != nil || !ok {
					return false
				}
				present = append(present[:k], present[k+1:]...)
			}
		}
		want := cluster.Triangles(s.Snapshot())
		got := s.Triangles()
		for v := range want {
			if got[v] != want[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: coefficients from the stream match the static kernel.
func TestPropertyCoefficientsMatchStatic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New(25)
		for i := 0; i < 120; i++ {
			s.Insert(Update{U: int32(rng.Intn(25)), V: int32(rng.Intn(25))})
		}
		want := cluster.Coefficients(s.Snapshot())
		for v := int32(0); v < 25; v++ {
			if diff := coefficient(s, v) - want[v]; diff > 1e-12 || diff < -1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotFeedsStaticKernels(t *testing.T) {
	// A streamed ring snapshot behaves like a generated ring.
	s := New(10)
	for v := 0; v < 10; v++ {
		s.Insert(Update{U: int32(v), V: int32((v + 1) % 10)})
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

func BenchmarkInsertWithTriangles(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := New(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(Update{U: int32(rng.Intn(10000)), V: int32(rng.Intn(10000)), Time: int64(i)})
	}
}
