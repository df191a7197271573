package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"graphct/internal/api"
	"graphct/internal/blob"
	"graphct/internal/stream"
	"graphct/internal/wal"
)

// newFollowerServer pairs a fresh in-memory server with a Follower tailing
// the given leader URL. Tests drive SyncOnce directly for determinism.
func newFollowerServer(t *testing.T, leaderURL string) (*Server, *Follower, *httptest.Server) {
	t.Helper()
	s := New(NewRegistry(), Config{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, NewFollower(s, leaderURL, time.Millisecond), ts
}

// assertReplicaMatchesLeader checks the full convergence contract: the
// replica's published entry sits at the leader's published epoch with a
// bit-identical adjacency, and the replica's live head (including records
// applied from the open WAL segment) matches the leader's live head.
func assertReplicaMatchesLeader(t *testing.T, leader, follower *Server, name string) {
	t.Helper()
	le, ok := leader.reg.Get(name)
	if !ok {
		t.Fatalf("leader lost graph %q", name)
	}
	fe, ok := follower.reg.Get(name)
	if !ok {
		t.Fatalf("follower has no graph %q", name)
	}
	if fe.Live == nil || !fe.Live.replica {
		t.Fatalf("follower entry for %q is not a replica (live=%v)", name, fe.Live != nil)
	}
	if fe.Epoch != le.Epoch {
		t.Fatalf("replica published epoch %d, leader %d", fe.Epoch, le.Epoch)
	}
	graphsEqual(t, fe.Graph, le.Graph)
	graphsEqual(t, fe.Live.st.Snapshot(), le.Live.st.Snapshot())
	if got, want := fe.Live.st.LastTime(), le.Live.st.LastTime(); got != want {
		t.Fatalf("replica clock %d, leader clock %d", got, want)
	}
}

// TestReplicationFeedEndpoints exercises the leader side of replication:
// the raw snapshot endpoint and the three WAL-tail response states.
func TestReplicationFeedEndpoints(t *testing.T) {
	leader := newDurableServer(t, t.TempDir(), Config{SnapshotEvery: 40})
	if _, err := leader.AddLive("g", 100); err != nil {
		t.Fatal(err)
	}
	for b, batch := range soakBatches(3, 100, 8, 20) {
		ingestDirect(t, leader, "g", fmt.Sprintf("b-%d", b), batch)
	}
	ts := httptest.NewServer(leader)
	defer ts.Close()

	epochs, err := leader.durableEpochs("g")
	if err != nil || len(epochs) < 2 {
		t.Fatalf("want >=2 durable epochs, got %v (%v)", epochs, err)
	}
	head := epochs[len(epochs)-1]

	// Snapshot feed: raw GCTS bytes, decodable, stamped with the epoch.
	status, hdr, body := get(t, ts.URL+"/graphs/g/snapshot")
	if status != http.StatusOK || hdr.Get("Content-Type") != api.ContentTypeSnapshot {
		t.Fatalf("snapshot GET: %d %q", status, hdr.Get("Content-Type"))
	}
	if got := hdr.Get(api.HeaderEpoch); got != strconv.FormatUint(head, 10) {
		t.Fatalf("snapshot epoch header %q, want %d", got, head)
	}
	snap, err := blob.DecodeSnapshot(body)
	if err != nil || snap.Epoch != head {
		t.Fatalf("shipped snapshot: epoch %d, err %v; want %d", snap.Epoch, err, head)
	}

	// Sealed segment: based at an old epoch, naming its successor.
	status, hdr, _ = get(t, fmt.Sprintf("%s/graphs/g/wal?from=%d", ts.URL, epochs[0]))
	if status != http.StatusOK || hdr.Get(api.HeaderWALSealed) != "true" {
		t.Fatalf("old segment: %d sealed=%q", status, hdr.Get(api.HeaderWALSealed))
	}
	if next, _ := strconv.ParseUint(hdr.Get(api.HeaderWALNext), 10, 64); next != epochs[1] {
		t.Fatalf("sealed next %q, want %d", hdr.Get(api.HeaderWALNext), epochs[1])
	}

	// Open segment: the head epoch's tail, not sealed.
	status, hdr, _ = get(t, fmt.Sprintf("%s/graphs/g/wal?from=%d", ts.URL, head))
	if status != http.StatusOK || hdr.Get(api.HeaderWALSealed) != "" {
		t.Fatalf("open segment: %d sealed=%q", status, hdr.Get(api.HeaderWALSealed))
	}
	if got := hdr.Get(api.HeaderWALBase); got != strconv.FormatUint(head, 10) {
		t.Fatalf("open segment base %q, want %d", got, head)
	}

	// Unknown futures 404 (nothing to tail yet); missing from is a 400.
	if status, _, _ = get(t, ts.URL+"/graphs/g/wal?from=999999999"); status != http.StatusNotFound {
		t.Fatalf("future segment: %d, want 404", status)
	}
	if status, _, _ = get(t, ts.URL+"/graphs/g/wal"); status != http.StatusBadRequest {
		t.Fatalf("missing from: %d, want 400", status)
	}

	// A non-durable daemon has nothing to ship.
	mem := New(NewRegistry(), Config{})
	if _, err := mem.AddLive("m", 10); err != nil {
		t.Fatal(err)
	}
	mts := httptest.NewServer(mem)
	defer mts.Close()
	if status, _, _ = get(t, mts.URL+"/graphs/m/snapshot"); status != http.StatusNotFound {
		t.Fatalf("non-durable snapshot: %d, want 404", status)
	}
	if status, _, _ = get(t, mts.URL+"/graphs/m/wal?from=0"); status != http.StatusNotFound {
		t.Fatalf("non-durable wal: %d, want 404", status)
	}
}

// TestFollowerBootstrapAndTail is the follower half of the replication
// acceptance scenario: bootstrap from the leader's newest snapshot, tail
// the WAL across seal points, converge bit-identically at the leader's own
// epoch numbers, reject direct writes, keep converging as the leader moves,
// and drop the replica when the leader deletes the graph.
func TestFollowerBootstrapAndTail(t *testing.T) {
	const vertices = 150
	leader := newDurableServer(t, t.TempDir(), Config{SnapshotEvery: 60})
	if _, err := leader.AddLive("g", vertices); err != nil {
		t.Fatal(err)
	}
	workload := soakBatches(11, vertices, 30, 25)
	for b, batch := range workload[:20] {
		ingestDirect(t, leader, "g", fmt.Sprintf("b-%d", b), batch)
	}
	lts := httptest.NewServer(leader)
	defer lts.Close()

	fsrv, f, fts := newFollowerServer(t, lts.URL)
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("SyncOnce: %v", err)
	}
	assertReplicaMatchesLeader(t, leader, fsrv, "g")
	if fsrv.metrics.ReplicaBootstraps.Load() != 1 {
		t.Fatalf("replica_bootstraps = %d, want 1", fsrv.metrics.ReplicaBootstraps.Load())
	}

	// Kernel responses from the replica are byte-identical to the leader's
	// at the same epoch — the property routed reads rely on.
	for _, kernel := range []string{"stats", "components", "degrees", "clustering"} {
		ls, lh, lb := get(t, lts.URL+"/graphs/g/"+kernel)
		fs, fh, fb := get(t, fts.URL+"/graphs/g/"+kernel)
		if ls != http.StatusOK || fs != http.StatusOK {
			t.Fatalf("%s: leader %d, follower %d", kernel, ls, fs)
		}
		if le, fe := lh.Get(api.HeaderEpoch), fh.Get(api.HeaderEpoch); le != fe {
			t.Fatalf("%s: leader epoch %s, follower epoch %s", kernel, le, fe)
		}
		if string(lb) != string(fb) {
			t.Fatalf("%s: leader and follower bodies differ:\n%s\n%s", kernel, lb, fb)
		}
	}

	// Replicas are read-only: writes must go to the leader.
	if status, body := postJSON(t, fts.URL+"/graphs/g/ingest", []map[string]any{{"u": 0, "v": 1}}); status != http.StatusConflict {
		t.Fatalf("replica ingest: %d %s, want 409", status, body)
	}
	if status, body := postJSON(t, fts.URL+"/graphs/g/snapshot", nil); status != http.StatusConflict {
		t.Fatalf("replica snapshot: %d %s, want 409", status, body)
	}

	// The leader moves on; the next pass catches the replica up without
	// another bootstrap.
	for b, batch := range workload[20:] {
		ingestDirect(t, leader, "g", fmt.Sprintf("b2-%d", b), batch)
	}
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("SyncOnce: %v", err)
	}
	assertReplicaMatchesLeader(t, leader, fsrv, "g")
	if fsrv.metrics.ReplicaBootstraps.Load() != 1 {
		t.Fatalf("replica_bootstraps = %d after tail, want 1", fsrv.metrics.ReplicaBootstraps.Load())
	}
	if fsrv.metrics.ReplicaEpochs.Load() == 0 {
		t.Fatal("no replica epochs pinned while tailing")
	}

	// Applying the same pass again must be a no-op (idempotent tailing).
	before := fsrv.metrics.ReplicaBatches.Load()
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("SyncOnce: %v", err)
	}
	if got := fsrv.metrics.ReplicaBatches.Load(); got != before {
		t.Fatalf("idle pass applied %d batches", got-before)
	}
	assertReplicaMatchesLeader(t, leader, fsrv, "g")

	// Leader-side deletion propagates.
	leader.reg.Remove("g")
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("SyncOnce: %v", err)
	}
	if _, ok := fsrv.reg.Get("g"); ok {
		t.Fatal("replica survived leader-side delete")
	}
}

// TestFollowerRebootstrapAfterPrune drops a follower far enough behind
// that the leader's retention window prunes its segment: the WAL feed
// answers 410 Gone and the follower must re-bootstrap from the newest
// snapshot rather than silently diverge.
func TestFollowerRebootstrapAfterPrune(t *testing.T) {
	const vertices = 120
	leader := newDurableServer(t, t.TempDir(), Config{SnapshotEvery: 25, RetainEpochs: 1})
	if _, err := leader.AddLive("g", vertices); err != nil {
		t.Fatal(err)
	}
	workload := soakBatches(5, vertices, 24, 25)
	for b, batch := range workload[:4] {
		ingestDirect(t, leader, "g", fmt.Sprintf("b-%d", b), batch)
	}
	lts := httptest.NewServer(leader)
	defer lts.Close()

	fsrv, f, _ := newFollowerServer(t, lts.URL)
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("SyncOnce: %v", err)
	}

	// Publish enough epochs that the follower's segment falls out of the
	// one-epoch retention window.
	for b, batch := range workload[4:] {
		ingestDirect(t, leader, "g", fmt.Sprintf("b2-%d", b), batch)
	}
	segs, err := leader.walSegments("g")
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range segs {
		if base == f.state["g"].base {
			t.Skipf("follower segment %d survived retention; prune did not trigger", base)
		}
	}

	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("SyncOnce after prune: %v", err)
	}
	if got := fsrv.metrics.ReplicaBootstraps.Load(); got != 2 {
		t.Fatalf("replica_bootstraps = %d, want 2 (re-bootstrap after 410)", got)
	}
	assertReplicaMatchesLeader(t, leader, fsrv, "g")
}

// TestWALNextDerivedFromSnapshots pins the seal-point contract when a
// segment is dropped as incomplete. With segments E0 (sealed), E1
// (deleted at rotation after a WAL failure) and E2 (open), Wal-Next for
// E0 must name E1 — the durable epoch applying E0 actually lands on —
// not E2, the next *surviving* segment; and tailing from E1 must answer
// 410 so a follower re-bootstraps instead of pinning a wrong epoch. A
// follower driven across the gap must stay bit-identical to the leader.
func TestWALNextDerivedFromSnapshots(t *testing.T) {
	const vertices = 60
	leader := newDurableServer(t, t.TempDir(), Config{SnapshotEvery: 1 << 30})
	if _, err := leader.AddLive("g", vertices); err != nil {
		t.Fatal(err)
	}
	e, _ := leader.reg.Get("g")
	e0 := e.Epoch
	lts := httptest.NewServer(leader)
	defer lts.Close()

	// A follower starts tailing segment E0 before the gap exists.
	fsrv, f, _ := newFollowerServer(t, lts.URL)
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("SyncOnce: %v", err)
	}

	// Segment E0 gets one batch, then a forced snapshot seals it at E1.
	ingestDirect(t, leader, "g", "b-1", []stream.Update{{U: 0, V: 1, Time: 1}})
	r1, err := leader.forceSnapshot("g", e.Live, e0)
	if err != nil || !r1.Snapshotted {
		t.Fatalf("snapshot at e1: %+v, %v", r1, err)
	}
	// Segment E1 takes a batch, then a simulated WAL append failure forces
	// the next batch to publish E2 — whose rotation deletes segment E1 as
	// incomplete. Surviving segments: E0 (sealed), E2 (open); durable
	// snapshots: E0, E1, E2.
	ingestDirect(t, leader, "g", "b-2", []stream.Update{{U: 1, V: 2, Time: 2}})
	e.Live.mu.Lock()
	e.Live.walFailed = true
	e.Live.mu.Unlock()
	r2 := ingestDirect(t, leader, "g", "b-3", []stream.Update{{U: 2, V: 3, Time: 3}})
	if !r2.Snapshotted {
		t.Fatalf("walFailed batch did not publish: %+v", r2)
	}
	e1, e2 := r1.Epoch, r2.Epoch
	segs, err := leader.walSegments("g")
	if err != nil || len(segs) != 2 || segs[0] != e0 || segs[1] != e2 {
		t.Fatalf("segments = %v (%v), want [%d %d] with %d dropped", segs, err, e0, e2, e1)
	}

	// The sealed E0 segment must lead to E1 (snapshot chain), not E2
	// (surviving segments).
	status, hdr, _ := get(t, fmt.Sprintf("%s/graphs/g/wal?from=%d", lts.URL, e0))
	if status != http.StatusOK || hdr.Get(api.HeaderWALSealed) != "true" {
		t.Fatalf("sealed segment: %d sealed=%q", status, hdr.Get(api.HeaderWALSealed))
	}
	if got := hdr.Get(api.HeaderWALNext); got != strconv.FormatUint(e1, 10) {
		t.Fatalf("wal-next = %q, want %d (not surviving segment %d)", got, e1, e2)
	}
	// The dropped segment's base is Gone, not a silent miss.
	if status, _, _ = get(t, fmt.Sprintf("%s/graphs/g/wal?from=%d", lts.URL, e1)); status != http.StatusGone {
		t.Fatalf("dropped segment: %d, want 410", status)
	}

	// Driving the follower across the gap: it finishes E0, pins E1, hits
	// the 410 and re-bootstraps from the E2 snapshot — converged, never
	// mis-pinned.
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("SyncOnce across gap: %v", err)
	}
	if got := fsrv.metrics.ReplicaBootstraps.Load(); got != 2 {
		t.Fatalf("replica_bootstraps = %d, want 2 (re-bootstrap across dropped segment)", got)
	}
	assertReplicaMatchesLeader(t, leader, fsrv, "g")
}

// TestFollowerKeepsReplicasWhileLeaderBoots covers the recovery window: a
// leader serves /graphs before background recovery has repopulated it, so
// an empty listing from a not-ready leader must not tear down replicas.
// Once the leader reports ready, absence does mean deletion.
func TestFollowerKeepsReplicasWhileLeaderBoots(t *testing.T) {
	leader := newDurableServer(t, t.TempDir(), Config{})
	if _, err := leader.AddLive("g", 40); err != nil {
		t.Fatal(err)
	}
	ingestDirect(t, leader, "g", "b-1", []stream.Update{{U: 0, V: 1, Time: 1}})
	lts := httptest.NewServer(leader)
	defer lts.Close()

	fsrv, f, _ := newFollowerServer(t, lts.URL)
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("SyncOnce: %v", err)
	}
	if _, ok := fsrv.reg.Get("g"); !ok {
		t.Fatal("follower did not bootstrap g")
	}

	// Simulate a leader restart mid-recovery: registry empty, /readyz
	// reporting "recovering". The follower must hold its replica.
	leader.reg.Remove("g")
	leader.SetReady(false)
	leader.SetRecovering(true)
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("SyncOnce during recovery: %v", err)
	}
	if _, ok := fsrv.reg.Get("g"); !ok {
		t.Fatal("follower dropped replica on a recovering leader's partial listing")
	}

	// Recovery finishes and the graph really is gone: now the absence is a
	// deletion and the replica follows.
	leader.SetRecovering(false)
	leader.SetReady(true)
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("SyncOnce after recovery: %v", err)
	}
	if _, ok := fsrv.reg.Get("g"); ok {
		t.Fatal("replica survived a ready leader's deletion")
	}
}

// TestDeleteReplicaRejected: DELETE on a follower's replica graph is a
// 409 like the other write paths — its lifecycle belongs to the leader.
func TestDeleteReplicaRejected(t *testing.T) {
	leader := newDurableServer(t, t.TempDir(), Config{})
	if _, err := leader.AddLive("g", 40); err != nil {
		t.Fatal(err)
	}
	ingestDirect(t, leader, "g", "b-1", []stream.Update{{U: 0, V: 1, Time: 1}})
	lts := httptest.NewServer(leader)
	defer lts.Close()

	fsrv, f, fts := newFollowerServer(t, lts.URL)
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("SyncOnce: %v", err)
	}
	req, _ := http.NewRequest(http.MethodDelete, fts.URL+"/graphs/g", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("replica delete: %d, want 409", resp.StatusCode)
	}
	if _, ok := fsrv.reg.Get("g"); !ok {
		t.Fatal("replica vanished after rejected delete")
	}
}

// TestApplyReplicaDedup covers the record-level idempotency backstop: a
// record whose batch_id is already in the dedup window is not re-applied.
func TestApplyReplicaDedup(t *testing.T) {
	s := New(NewRegistry(), Config{})
	st := stream.New(10)
	live := &Live{st: st, replica: true}
	s.reg.addEntryAt("g", st.Snapshot(), live, 1)

	rec := wal.Record{BatchID: "b-1", Updates: []stream.Update{{U: 0, V: 1, Time: 1}}}
	for i := 0; i < 3; i++ {
		live.mu.Lock()
		err := live.replay(s.metrics, rec)
		live.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := live.st.NumEdges(); got != 1 {
		t.Fatalf("edges = %d after duplicate applies, want 1", got)
	}
}

// TestFollowerApplyPanicIsolated: a record that panics while the tailer
// applies it (stream.apply armed to panic once) is that sync pass's error,
// counted in ingest_panics — not a dead tailer. The replica keeps serving
// its previous epoch and the next pass converges to the leader's bits.
func TestFollowerApplyPanicIsolated(t *testing.T) {
	leader := newDurableServer(t, t.TempDir(), Config{SnapshotEvery: 1 << 30})
	if _, err := leader.AddLive("g", 40); err != nil {
		t.Fatal(err)
	}
	ingestDirect(t, leader, "g", "b-1", []stream.Update{{U: 0, V: 1, Time: 1}})
	lts := httptest.NewServer(leader)
	defer lts.Close()

	fsrv, f, _ := newFollowerServer(t, lts.URL)
	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("SyncOnce: %v", err)
	}
	before, _ := fsrv.reg.Get("g")

	// One unreplicated batch on the leader, then the fault on the follower.
	ingestDirect(t, leader, "g", "b-2", []stream.Update{{U: 1, V: 2, Time: 2}})
	armFailpoints(t, "stream.apply=panic(replica chaos)*1")
	if err := f.SyncOnce(context.Background()); !errors.Is(err, errIngestPanic) {
		t.Fatalf("SyncOnce over a panicking record: %v, want errIngestPanic", err)
	}
	if got := fsrv.metrics.IngestPanics.Load(); got != 1 {
		t.Fatalf("ingest_panics = %d, want 1", got)
	}
	if after, ok := fsrv.reg.Get("g"); !ok || after != before {
		t.Fatal("replica stopped serving its previous epoch after the isolated panic")
	}

	if err := f.SyncOnce(context.Background()); err != nil {
		t.Fatalf("SyncOnce after the failpoint is spent: %v", err)
	}
	assertReplicaMatchesLeader(t, leader, fsrv, "g")
}
