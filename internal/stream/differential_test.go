package stream

// Differential tests: the row-based Stream against the retired map-based
// one (oracle_test.go), compared after every batch on everything either
// keeps — edge count, rows, tri6, the dirty set, pending mutations, the
// clock, the BatchResult — and on every snapshot's rowPtr and adj. CI runs
// this package at -cpu 1,2,4, which changes the shard count.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"graphct/internal/cluster"
	"graphct/internal/gen"
	"graphct/internal/graph"
)

// sameAsOracle fails unless s holds exactly o's state with every row
// strictly ascending.
func sameAsOracle(t *testing.T, what string, s *Stream, o *oracleStream) {
	t.Helper()
	if s.n != o.n || s.edges != o.edges || s.lastTime != o.lastTime || s.sinceSnap != o.sinceSnap {
		t.Fatalf("%s: n %d, edges %d, clock %d, pending %d; oracle %d, %d, %d, %d",
			what, s.n, s.edges, s.lastTime, s.sinceSnap, o.n, o.edges, o.lastTime, o.sinceSnap)
	}
	for v, row := range s.adj {
		if len(row) != len(o.adj[v]) {
			t.Fatalf("%s: row %d has %d entries, oracle %d", what, v, len(row), len(o.adj[v]))
		}
		for i, w := range row {
			if _, ok := o.adj[v][w]; !ok || i > 0 && row[i-1] >= w {
				t.Fatalf("%s: row %d = %v is not the oracle's set in ascending order", what, v, row)
			}
		}
		if s.tri6[v] != o.tri6[v] || s.dirty[v] != o.dirty[v] {
			t.Fatalf("%s: vertex %d tri6 %d dirty %v; oracle %d %v", what, v, s.tri6[v], s.dirty[v], o.tri6[v], o.dirty[v])
		}
	}
	got, want := slices.Clone(s.dirtyList), slices.Clone(o.dirtyList)
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) || s.DirtyVertices() != o.DirtyVertices() {
		t.Fatalf("%s: dirty list %v, oracle %v", what, got, want)
	}
}

// sameSnapshot fails unless two snapshots hold identical CSR arrays.
func sameSnapshot(t *testing.T, what string, got, want *graph.Graph) {
	t.Helper()
	if !slices.Equal(got.RowPtr(), want.RowPtr()) || !slices.Equal(got.AdjArray(), want.AdjArray()) {
		t.Fatalf("%s: snapshot CSR differs from the oracle's", what)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: snapshot NumEdges %d, oracle %d", what, got.NumEdges(), want.NumEdges())
	}
}

// replayBoth applies each batch to s and to o, comparing results, errors
// and state after every batch, and snapshots after every snapEvery-th.
func replayBoth(t *testing.T, what string, s *Stream, o *oracleStream, batches [][]Update, snapEvery int) {
	t.Helper()
	for i, batch := range batches {
		step := fmt.Sprintf("%s batch %d", what, i)
		got, gerr := s.ApplyBatch(batch)
		want, werr := o.ApplyBatch(batch)
		if got != want || (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: result %+v (err %v), oracle %+v (err %v)", step, got, gerr, want, werr)
		}
		sameAsOracle(t, step, s, o)
		if i%snapEvery == snapEvery-1 {
			sameSnapshot(t, step, s.Snapshot(), o.Snapshot())
			sameAsOracle(t, step+" after snapshot", s, o)
		}
	}
}

func ins(u, v int32) Update { return Update{U: u, V: v} }
func del(u, v int32) Update { return Update{U: u, V: v, Del: true} }

// history is one named update sequence of the differential matrix.
type history struct {
	name    string
	n       int
	batches [][]Update
}

func histories() []history {
	rng := rand.New(rand.NewSource(24))
	var k5, k5del []Update
	for u := int32(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			k5 = append(k5, ins(u, v))
			k5del = append(k5del, del(v, u))
		}
	}
	// A ring of leaves, then batches in which every update touches hub 0.
	hub := [][]Update{nil}
	for v := int32(1); v < 200; v++ {
		hub[0] = append(hub[0], ins(v, v%199+1))
	}
	for b := 0; b < 12; b++ {
		batch := make([]Update, 64)
		for i := range batch {
			batch[i] = Update{U: 0, V: int32(rng.Intn(200)), Del: rng.Intn(4) == 0}
			if rng.Intn(2) == 0 {
				batch[i].U, batch[i].V = batch[i].V, batch[i].U
			}
		}
		hub = append(hub, batch)
	}
	var random [][]Update
	for b := 0; b < 40; b++ {
		random = append(random, randomBatch(rng, 30, 1+rng.Intn(150), 0.3))
	}
	out := []history{
		{"duplicate inserts in a run", 8, [][]Update{
			{ins(0, 1), ins(1, 0), ins(0, 1), ins(2, 3), ins(3, 2), ins(1, 2), ins(2, 1), ins(0, 2)},
			{ins(1, 0), ins(0, 3), ins(3, 0), ins(0, 3), ins(1, 3)},
		}},
		{"insert then delete in one batch", 6, [][]Update{
			{ins(0, 1), ins(1, 2), ins(0, 2), del(0, 1), del(1, 0), ins(0, 1), del(2, 1), del(1, 2)},
			{del(0, 2), ins(0, 2), ins(2, 0), del(0, 2), ins(3, 4), del(4, 3)},
		}},
		{"absent deletes and self loops", 6, [][]Update{
			{del(0, 1), del(2, 2), ins(3, 3)},
			{ins(0, 1), del(4, 5), del(1, 1), ins(1, 1), del(0, 1), del(0, 1)},
			{ins(5, 5)},
		}},
		{"triangles with k changed edges", 7, [][]Update{
			{ins(0, 1), ins(1, 2), ins(2, 0)},
			{ins(3, 0), ins(3, 1)},
			{ins(4, 3), ins(4, 0), ins(4, 1), ins(4, 2)},
			{del(0, 1), del(1, 2), del(2, 0)},
			{del(3, 0), del(1, 3), del(0, 4)},
			k5, k5del, k5,
		}},
		{"one hub", 200, hub},
		{"alternating runs and empty batches", 10, [][]Update{
			{}, nil,
			{ins(0, 1), del(0, 1), ins(0, 1), ins(1, 2), del(0, 1), ins(0, 2), del(1, 2), ins(1, 2)},
			{},
			{del(0, 2), ins(0, 2), del(0, 2), ins(0, 1), del(9, 8), ins(8, 9)},
		}},
		{"validation error mid-batch", 5, [][]Update{
			{ins(0, 1), ins(1, 2), ins(0, 2)},
			{ins(2, 3), {U: 0, V: 5}, del(0, 1)},
			{del(1, 2), ins(3, 4), {U: -1, V: 2, Del: true}},
			{del(0, 1), ins(3, 4)},
		}},
		{"random", 30, random},
	}
	var clock int64
	for _, h := range out {
		for _, b := range h.batches {
			for i := range b {
				if b[i].Time == 0 {
					clock++
					b[i].Time = clock
				}
			}
		}
	}
	return out
}

// TestStreamMatchesOracle is the exactness contract of the row layout:
// on every history, after every batch, the stream holds the oracle's state.
func TestStreamMatchesOracle(t *testing.T) {
	for _, h := range histories() {
		for _, every := range []int{1, 3} {
			s, o := New(h.n), newOracle(h.n)
			replayBoth(t, fmt.Sprintf("%s (snapshot every %d)", h.name, every), s, o, h.batches, every)
			sameSnapshot(t, h.name+" final", s.Snapshot(), o.Snapshot())
		}
	}
}

// TestValidationErrorLeavesStreamUnchanged: a rejected batch mutates
// nothing, however far into the batch the bad update sits.
func TestValidationErrorLeavesStreamUnchanged(t *testing.T) {
	s, o := New(5), newOracle(5)
	replayBoth(t, "seed", s, o, [][]Update{{ins(0, 1), ins(1, 2), ins(0, 2)}}, 1)
	for _, bad := range [][]Update{
		{ins(2, 3), {U: 0, V: 5}},
		{del(0, 1), ins(3, 4), {U: 4, V: -1}},
		{{U: 7, V: 1}, del(1, 2)},
	} {
		before := s.Snapshot()
		if res, err := s.ApplyBatch(bad); err == nil || res != (BatchResult{}) {
			t.Fatalf("bad batch %v: result %+v, err %v", bad, res, err)
		}
		if s.PendingUpdates() != 0 || s.DirtyVertices() != 0 {
			t.Fatalf("bad batch %v left %d pending, %d dirty", bad, s.PendingUpdates(), s.DirtyVertices())
		}
		sameSnapshot(t, "after a rejected batch", s.Snapshot(), before)
		if _, err := o.ApplyBatch(bad); err == nil {
			t.Fatal("oracle accepted the bad batch")
		}
		o.Snapshot()
		sameAsOracle(t, "after a rejected batch", s, o)
	}
}

// TestFromGraphMatchesOracle seeds both streams from static graphs with
// repeated arcs, self loops, directed arcs and compact rows, then replays
// random batches on top.
func TestFromGraphMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	edges := make([]graph.Edge, 900)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(rng.Intn(60)), V: int32(rng.Intn(60))}
	}
	edges = append(edges, edges[:300]...) // every third edge repeated
	build := func(opt graph.Options) *graph.Graph {
		g, err := graph.FromEdges(60, slices.Clone(edges), opt)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	multi := build(graph.Options{KeepDuplicates: true, KeepSelfLoops: true})
	empty, err := graph.FromEdges(0, nil, graph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]*graph.Graph{
		"multigraph":         multi,
		"self loops":         build(graph.Options{KeepSelfLoops: true}),
		"directed":           build(graph.Options{Directed: true, KeepDuplicates: true}),
		"compact multigraph": multi.Compact(),
		"empty":              empty,
		"rmat-10":            gen.RMAT(gen.PaperRMAT(10, 2)),
	}
	for name, g := range inputs {
		s, o := FromGraph(g), oracleFromGraph(g)
		sameAsOracle(t, name, s, o)
		sameSnapshot(t, name, s.Snapshot(), o.Snapshot())
		var batches [][]Update
		for b := 0; b < 8 && g.NumVertices() > 0; b++ {
			batches = append(batches, randomBatch(rng, g.NumVertices(), 1+rng.Intn(200), 0.4))
		}
		replayBoth(t, name, s, o, batches, 2)
	}
}

// FuzzApplyBatch turns bytes into a short history of small batches and
// holds the stream to the oracle after every batch, and its final
// snapshot to a static triangle count. data[0] picks the vertex count;
// each following three bytes are one update: op (bit 0 deletes, bit 1
// ends the batch after it), then the endpoints (255 is out of range).
func FuzzApplyBatch(f *testing.F) {
	f.Add([]byte{5, 0, 0, 1, 0, 1, 2, 2, 2, 0})
	f.Add([]byte{4, 0, 0, 1, 1, 0, 1, 3, 1, 0, 0, 2, 3})
	f.Add([]byte{6, 0, 3, 3, 1, 2, 4, 2, 0, 255, 3, 1, 2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := int(data[0]%16) + 1
		id := func(b byte) int32 {
			if b == 255 {
				return int32(n)
			}
			return int32(int(b) % n)
		}
		var batches [][]Update
		var batch []Update
		for i := 1; i+3 <= len(data); i += 3 {
			batch = append(batch, Update{U: id(data[i+1]), V: id(data[i+2]), Time: int64(i), Del: data[i]&1 != 0})
			if data[i]&2 != 0 {
				batches, batch = append(batches, batch), nil
			}
		}
		batches = append(batches, batch)
		s, o := New(n), newOracle(n)
		replayBoth(t, "fuzz", s, o, batches, 2)
		snap := s.Snapshot()
		sameSnapshot(t, "fuzz final", snap, o.Snapshot())
		if got, want := s.Triangles(), cluster.Triangles(snap); !slices.Equal(got, want) {
			t.Fatalf("triangles %v, static count on the snapshot %v", got, want)
		}
	})
}

// BenchmarkApplyBatchChurn replays the live workload's shape on a
// scale-14 R-MAT graph — half its edges prefilled in 1,024-update batches,
// then 400 batches that insert the other half and continue with nine
// random inserts to one delete of an offered edge — snapshotting every
// 32,768 effective mutations, on the rows and on the retired maps.
func BenchmarkApplyBatchChurn(b *testing.B) {
	const scale, size, churn, every = 14, 1024, 400, 32768
	n := 1 << scale
	edges := gen.RMATEdges(gen.PaperRMAT(scale, 44))
	rng := rand.New(rand.NewSource(45))
	var batches [][]Update
	var known []graph.Edge
	clock := int64(0)
	next := func(e graph.Edge, del bool) Update {
		clock++
		return Update{U: e.U, V: e.V, Time: clock, Del: del}
	}
	half := len(edges) / 2
	for lo := 0; lo < half; lo += size {
		var batch []Update
		for _, e := range edges[lo:min(lo+size, half)] {
			batch = append(batch, next(e, false))
			known = append(known, e)
		}
		batches = append(batches, batch)
	}
	rest := edges[half:]
	for i := 0; i < churn; i++ {
		batch := make([]Update, size)
		for j := range batch {
			switch {
			case len(rest) > 0:
				known = append(known, rest[0])
				batch[j], rest = next(rest[0], false), rest[1:]
			case rng.Intn(10) == 0:
				batch[j] = next(known[rng.Intn(len(known))], true)
			default:
				e := graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
				known = append(known, e)
				batch[j] = next(e, false)
			}
		}
		batches = append(batches, batch)
	}
	type applier interface {
		ApplyBatch([]Update) (BatchResult, error)
	}
	run := func(b *testing.B, fresh func() (applier, func() bool, func())) {
		var apply, snap time.Duration
		updates, snaps := 0, 0
		for i := 0; i < b.N; i++ {
			s, due, snapshot := fresh()
			for _, batch := range batches {
				start := time.Now()
				if _, err := s.ApplyBatch(batch); err != nil {
					b.Fatal(err)
				}
				apply += time.Since(start)
				updates += len(batch)
				if due() {
					start = time.Now()
					snapshot()
					snap += time.Since(start)
					snaps++
				}
			}
		}
		b.ReportMetric(float64(updates)/apply.Seconds(), "updates/s")
		b.ReportMetric(snap.Seconds()*1e3/float64(snaps), "ms/snapshot")
	}
	b.Run("rows", func(b *testing.B) {
		run(b, func() (applier, func() bool, func()) {
			s := New(n)
			return s, func() bool { return s.SnapshotDue(every) }, func() { s.Snapshot() }
		})
	})
	b.Run("maps", func(b *testing.B) {
		run(b, func() (applier, func() bool, func()) {
			o := newOracle(n)
			return o, func() bool { return o.prev == nil || o.sinceSnap >= every }, func() { o.Snapshot() }
		})
	})
}
