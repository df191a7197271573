package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphct/internal/cluster"
	"graphct/internal/failpoint"
	"graphct/internal/stream"
)

// newDurableServer builds a server persisting to dir.
func newDurableServer(t *testing.T, dir string, cfg Config) *Server {
	t.Helper()
	cfg.DataDir = dir
	return New(NewRegistry(), cfg)
}

// ingestDirect pushes one batch through the full ingest critical section
// (apply, WAL append, snapshot-on-threshold, persistence) without HTTP.
func ingestDirect(t *testing.T, s *Server, name, batchID string, batch []stream.Update) ingestResult {
	t.Helper()
	e, ok := s.reg.Get(name)
	if !ok || e.Live == nil {
		t.Fatalf("no live graph %q", name)
	}
	out, _, err := s.applyIngest(name, e.Live, batchID, batch)
	if err != nil {
		t.Fatalf("ingest %q: %v", batchID, err)
	}
	return out
}

// cleanReplay applies the workload prefix [0, upto) straight through the
// stream engine — the uninterrupted reference every recovery must match.
func cleanReplay(t *testing.T, vertices int, workload [][]stream.Update, upto int) *stream.Stream {
	t.Helper()
	st := stream.New(vertices)
	for _, batch := range workload[:upto] {
		if _, err := st.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// assertRecoveredMatches bit-compares a recovered live graph against a
// clean replay: adjacency, edge count, incremental triangle counters,
// global clustering and the restored stream clock.
func assertRecoveredMatches(t *testing.T, s *Server, name string, want *stream.Stream) {
	t.Helper()
	e, ok := s.reg.Get(name)
	if !ok {
		t.Fatalf("graph %q not recovered", name)
	}
	if e.Live == nil {
		t.Fatalf("graph %q recovered static", name)
	}
	wantG := want.Snapshot()
	graphsEqual(t, e.Graph, wantG)
	gotTri, wantTri := e.Live.st.Triangles(), want.Triangles()
	for v := range wantTri {
		if gotTri[v] != wantTri[v] {
			t.Fatalf("vertex %d: recovered triangle count %d, clean replay %d", v, gotTri[v], wantTri[v])
		}
	}
	if got, want := e.Live.st.GlobalCoefficient(), want.GlobalCoefficient(); got != want {
		t.Fatalf("recovered global clustering %v, clean replay %v", got, want)
	}
	if got := cluster.Global(e.Graph); got != want.GlobalCoefficient() {
		t.Fatalf("static recount on recovered graph %v, incremental %v", got, want.GlobalCoefficient())
	}
	if got, wantT := e.Live.st.LastTime(), want.LastTime(); got != wantT {
		t.Fatalf("recovered clock %d, clean replay %d", got, wantT)
	}
}

// TestWarmRestartDifferential is the acceptance scenario in-process: a
// durable server ingests a seeded workload (snapshots and WAL rotations
// interleaving), is abandoned without any shutdown hook, and a second
// server over the same data directory must recover the graph bit-identical
// to an uninterrupted replay.
func TestWarmRestartDifferential(t *testing.T) {
	const (
		vertices = 150
		batches  = 40
		perBatch = 25
	)
	dir := t.TempDir()
	workload := soakBatches(7, vertices, batches, perBatch)

	s1 := newDurableServer(t, dir, Config{SnapshotEvery: 100})
	if _, err := s1.AddLive("g", vertices); err != nil {
		t.Fatal(err)
	}
	for b, batch := range workload {
		ingestDirect(t, s1, "g", fmt.Sprintf("b-%d", b), batch)
	}
	if s1.metrics.WALAppends.Load() != batches {
		t.Fatalf("wal_appends = %d, want %d", s1.metrics.WALAppends.Load(), batches)
	}
	if s1.metrics.SnapshotsPersisted.Load() == 0 || s1.metrics.SnapshotBytes.Load() == 0 {
		t.Fatal("no snapshots persisted during ingest")
	}
	// No shutdown, no flush: s1 is simply abandoned, as a killed process
	// would be. Everything recovery can use is already on disk.

	s2 := newDurableServer(t, dir, Config{SnapshotEvery: 100})
	n, err := s2.RecoverAll()
	if err != nil || n != 1 {
		t.Fatalf("RecoverAll = %d, %v; want 1, nil", n, err)
	}
	assertRecoveredMatches(t, s2, "g", cleanReplay(t, vertices, workload, batches))
	if s2.metrics.RecoveredGraphs.Load() != 1 {
		t.Fatalf("recovered_graphs = %d", s2.metrics.RecoveredGraphs.Load())
	}
	if s2.metrics.RecoveryMs.Load() < 0 {
		t.Fatalf("recovery_ms negative")
	}

	// Epochs keep ascending across the restart: the recovered entry must
	// sit above every epoch the first server published.
	e1max := uint64(0)
	for _, epoch := range listDurableEpochs(t, s2, "g") {
		if epoch > e1max {
			e1max = epoch
		}
	}
	e2, _ := s2.reg.Get("g")
	if e2.Epoch < e1max {
		t.Fatalf("recovered epoch %d below durable max %d", e2.Epoch, e1max)
	}

	// The recovered graph keeps ingesting and stays differential-correct.
	extra := soakBatches(8, vertices, 5, perBatch)
	for b, batch := range extra {
		ingestDirect(t, s2, "g", fmt.Sprintf("x-%d", b), batch)
	}
	want := cleanReplay(t, vertices, workload, batches)
	for _, batch := range extra {
		if _, err := want.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	s2.forceSnapshot("g", e2.Live, e2.Epoch)
	assertRecoveredMatches(t, s2, "g", want)
}

func listDurableEpochs(t *testing.T, s *Server, name string) []uint64 {
	t.Helper()
	epochs, err := s.durableEpochs(name)
	if err != nil {
		t.Fatal(err)
	}
	return epochs
}

// TestWarmRestartTornTail crashes "mid-write": the active WAL segment
// loses its final byte, invalidating exactly the last record. Recovery
// must stop at the last intact record and match a clean replay of every
// fully-logged batch.
func TestWarmRestartTornTail(t *testing.T) {
	const (
		vertices = 80
		batches  = 10
		perBatch = 20
	)
	dir := t.TempDir()
	workload := soakBatches(21, vertices, batches, perBatch)

	// A huge threshold keeps every batch in the initial segment: no
	// rotation, so the torn record is precisely the last batch.
	s1 := newDurableServer(t, dir, Config{SnapshotEvery: 1 << 40})
	if _, err := s1.AddLive("g", vertices); err != nil {
		t.Fatal(err)
	}
	for b, batch := range workload {
		ingestDirect(t, s1, "g", fmt.Sprintf("b-%d", b), batch)
	}
	e, _ := s1.reg.Get("g")
	segPath := e.Live.wal.Path()
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newDurableServer(t, dir, Config{SnapshotEvery: 1 << 40})
	if n, err := s2.RecoverAll(); err != nil || n != 1 {
		t.Fatalf("RecoverAll = %d, %v", n, err)
	}
	if s2.metrics.WALTornTails.Load() != 1 {
		t.Fatalf("wal_torn_tails = %d, want 1", s2.metrics.WALTornTails.Load())
	}
	if s2.metrics.RecoveredBatches.Load() != batches-1 {
		t.Fatalf("recovered_batches = %d, want %d", s2.metrics.RecoveredBatches.Load(), batches-1)
	}
	assertRecoveredMatches(t, s2, "g", cleanReplay(t, vertices, workload, batches-1))
}

// TestWarmRestartDedupWindow pins client-retry semantics across a crash:
// a batch acked before the crash and retried after the restart is answered
// from the rebuilt idempotency window, not double-applied.
func TestWarmRestartDedupWindow(t *testing.T) {
	const vertices = 50
	dir := t.TempDir()
	workload := soakBatches(33, vertices, 6, 15)

	s1 := newDurableServer(t, dir, Config{SnapshotEvery: 1 << 40})
	if _, err := s1.AddLive("g", vertices); err != nil {
		t.Fatal(err)
	}
	for b, batch := range workload {
		ingestDirect(t, s1, "g", fmt.Sprintf("b-%d", b), batch)
	}

	s2 := newDurableServer(t, dir, Config{SnapshotEvery: 1 << 40})
	if n, err := s2.RecoverAll(); err != nil || n != 1 {
		t.Fatalf("RecoverAll = %d, %v", n, err)
	}
	ts := newHTTPServer(t, s2)
	// The client never saw the ack for its last batch and retries it.
	last := len(workload) - 1
	var body []map[string]any
	for _, up := range workload[last] {
		body = append(body, map[string]any{"u": up.U, "v": up.V, "time": up.Time, "del": up.Del})
	}
	status, raw := postJSON(t, ts.URL+fmt.Sprintf("/graphs/g/ingest?batch_id=b-%d", last), body)
	if status != http.StatusOK {
		t.Fatalf("retry after restart: HTTP %d: %s", status, raw)
	}
	if s2.metrics.IngestDeduped.Load() != 1 {
		t.Fatalf("ingest_deduped = %d, want 1 (retry double-applied?)", s2.metrics.IngestDeduped.Load())
	}
	assertRecoveredMatches(t, s2, "g", cleanReplay(t, vertices, workload, len(workload)))
}

// TestWarmRestartApplyPanicIsolated: a logged batch that panics during
// replay (stream.apply armed to panic once) is that graph's recovery error,
// counted in ingest_panics — not a daemon that dies booting. The durable
// state is untouched, so a second RecoverAll with the failpoint spent
// recovers the graph bit-identical to a clean replay.
func TestWarmRestartApplyPanicIsolated(t *testing.T) {
	const vertices = 50
	dir := t.TempDir()
	workload := soakBatches(41, vertices, 1, 20)

	s1 := newDurableServer(t, dir, Config{SnapshotEvery: 1 << 40})
	if _, err := s1.AddLive("g", vertices); err != nil {
		t.Fatal(err)
	}
	ingestDirect(t, s1, "g", "b-0", workload[0])

	armFailpoints(t, "stream.apply=panic(recovery chaos)*1")
	s2 := newDurableServer(t, dir, Config{SnapshotEvery: 1 << 40})
	if n, err := s2.RecoverAll(); n != 0 || !errors.Is(err, errIngestPanic) {
		t.Fatalf("RecoverAll over a panicking record = %d, %v; want 0, errIngestPanic", n, err)
	}
	if got := s2.metrics.IngestPanics.Load(); got != 1 {
		t.Fatalf("ingest_panics = %d, want 1", got)
	}
	if _, ok := s2.reg.Get("g"); ok {
		t.Fatal("failed recovery published the graph")
	}

	if n, err := s2.RecoverAll(); err != nil || n != 1 {
		t.Fatalf("second RecoverAll = %d, %v; want 1, nil", n, err)
	}
	assertRecoveredMatches(t, s2, "g", cleanReplay(t, vertices, workload, 1))
}

// TestAddLiveRefusesUnrecoveredGraph: a name whose recovery failed —
// every retained snapshot corrupt — cannot be recreated empty (that would
// commit the newest durable epoch and let retention prune the real ones);
// its durable files stay byte-identical, and a later successful recovery
// lifts the refusal.
func TestAddLiveRefusesUnrecoveredGraph(t *testing.T) {
	const vertices = 30
	dir := t.TempDir()
	workload := soakBatches(3, vertices, 4, 10)
	s1 := newDurableServer(t, dir, Config{SnapshotEvery: 15})
	if _, err := s1.AddLive("g", vertices); err != nil {
		t.Fatal(err)
	}
	for i, batch := range workload {
		ingestDirect(t, s1, "g", fmt.Sprintf("b-%d", i), batch)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "blobs", "g", "*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshots: %v", err)
	}
	originals := map[string][]byte{}
	for _, p := range snaps {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		originals[p] = data
		bad := append([]byte(nil), data...)
		bad[len(bad)/2] ^= 0xff
		if err := os.WriteFile(p, bad, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := readTree(t, dir)

	s2 := newDurableServer(t, dir, Config{})
	if n, err := s2.RecoverAll(); n != 0 || err == nil || !strings.Contains(err.Error(), `recover "g"`) {
		t.Fatalf("RecoverAll over corrupt snapshots = %d, %v; want 0 and an error naming g", n, err)
	}
	if _, err := s2.AddLive("g", vertices); err == nil {
		t.Fatal("AddLive created an empty graph over an unrecovered one")
	}
	if _, err := s2.AddLive("other", vertices); err != nil {
		t.Fatalf("AddLive(other): %v", err)
	}
	after := readTree(t, dir)
	for p, data := range before {
		if !bytes.Equal(after[p], data) {
			t.Fatalf("%s changed after the refused AddLive", p)
		}
	}
	for p := range after {
		if _, ok := before[p]; !ok && strings.Contains(p, string(filepath.Separator)+"g"+string(filepath.Separator)) {
			t.Fatalf("%s appeared after the refused AddLive", p)
		}
	}

	for p, data := range originals {
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s2.RecoverAll(); err != nil || n != 2 {
		t.Fatalf("RecoverAll after repair = %d, %v; want 2, nil", n, err)
	}
	assertRecoveredMatches(t, s2, "g", cleanReplay(t, vertices, workload, len(workload)))
}

// readTree maps every file under dir to its contents.
func readTree(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(p)
		out[p] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestWALFailureForcesDurableSnapshot: when an append fails, the batch is
// still acked but the same request publishes and persists a snapshot, so
// the acked batch is durable anyway and a restart recovers it. When the
// append panics instead, the request fails (500) with its batch id
// unclaimed, so the client's retry is applied and logged — not answered
// from the idempotency window with nothing on disk.
func TestWALFailureForcesDurableSnapshot(t *testing.T) {
	defer failpoint.Default.DisarmAll()
	const vertices = 40
	dir := t.TempDir()
	workload := soakBatches(5, vertices, 5, 10)

	s1 := newDurableServer(t, dir, Config{SnapshotEvery: 1 << 40})
	if _, err := s1.AddLive("g", vertices); err != nil {
		t.Fatal(err)
	}
	ingestDirect(t, s1, "g", "b-0", workload[0])

	if err := failpoint.Default.Arm("wal.append=error(disk gone)*1"); err != nil {
		t.Fatal(err)
	}
	out := ingestDirect(t, s1, "g", "b-1", workload[1])
	if !out.Snapshotted {
		t.Fatalf("append failure did not force a snapshot: %+v", out)
	}
	if s1.metrics.WALErrors.Load() != 1 {
		t.Fatalf("wal_errors = %d, want 1", s1.metrics.WALErrors.Load())
	}
	e, _ := s1.reg.Get("g")
	if e.Live.walFailed {
		t.Fatal("walFailed not cleared by successful rotation")
	}
	ingestDirect(t, s1, "g", "b-2", workload[2])
	ingestDirect(t, s1, "g", "b-3", workload[3])

	if err := failpoint.Default.Arm("wal.append=panic(disk on fire)*1"); err != nil {
		t.Fatal(err)
	}
	logged := s1.metrics.WALAppends.Load()
	if _, _, err := s1.applyIngest("g", e.Live, "b-4", workload[4]); !errors.Is(err, errIngestPanic) {
		t.Fatalf("ingest through a panicking append: %v, want errIngestPanic", err)
	}
	if _, dup, err := s1.applyIngest("g", e.Live, "b-4", workload[4]); err != nil || dup {
		t.Fatalf("retry of the failed batch: dup=%v err=%v, want a fresh apply", dup, err)
	}
	if got := s1.metrics.WALAppends.Load(); got != logged+1 {
		t.Fatalf("wal_appends = %d after the retry, want %d (retry acked but never logged)", got, logged+1)
	}

	s2 := newDurableServer(t, dir, Config{SnapshotEvery: 1 << 40})
	if n, err := s2.RecoverAll(); err != nil || n != 1 {
		t.Fatalf("RecoverAll = %d, %v", n, err)
	}
	assertRecoveredMatches(t, s2, "g", cleanReplay(t, vertices, workload, 5))
}

// TestBlobFailureKeepsAckedBatchesDurable: a blob store outage defers the
// snapshot commit, but the old WAL segment keeps accumulating, so no acked
// batch is lost to a crash during the outage.
func TestBlobFailureKeepsAckedBatchesDurable(t *testing.T) {
	defer failpoint.Default.DisarmAll()
	const (
		vertices = 60
		batches  = 12
		perBatch = 20
	)
	dir := t.TempDir()
	workload := soakBatches(11, vertices, batches, perBatch)

	// Low threshold so publications (and thus blob puts) fire repeatedly
	// while the store is down.
	s1 := newDurableServer(t, dir, Config{SnapshotEvery: 50})
	if _, err := s1.AddLive("g", vertices); err != nil {
		t.Fatal(err)
	}
	if err := failpoint.Default.Arm("blob.put=error(store down)"); err != nil {
		t.Fatal(err)
	}
	for b, batch := range workload {
		ingestDirect(t, s1, "g", fmt.Sprintf("b-%d", b), batch)
	}
	if s1.metrics.PersistErrors.Load() == 0 {
		t.Fatal("no persist errors recorded during the outage")
	}
	failpoint.Default.DisarmAll()

	s2 := newDurableServer(t, dir, Config{SnapshotEvery: 50})
	if n, err := s2.RecoverAll(); err != nil || n != 1 {
		t.Fatalf("RecoverAll = %d, %v", n, err)
	}
	assertRecoveredMatches(t, s2, "g", cleanReplay(t, vertices, workload, batches))
}

// TestRecoverFallsBackPastCorruptSnapshot: bit rot in the newest durable
// snapshot must not stop the daemon — recovery falls back to an older
// retained epoch and serves what it can.
func TestRecoverFallsBackPastCorruptSnapshot(t *testing.T) {
	const vertices = 40
	dir := t.TempDir()
	workload := soakBatches(17, vertices, 8, 20)

	s1 := newDurableServer(t, dir, Config{SnapshotEvery: 60, RetainEpochs: 4})
	if _, err := s1.AddLive("g", vertices); err != nil {
		t.Fatal(err)
	}
	for b, batch := range workload {
		ingestDirect(t, s1, "g", fmt.Sprintf("b-%d", b), batch)
	}
	epochs := listDurableEpochs(t, s1, "g")
	if len(epochs) < 2 {
		t.Fatalf("want >= 2 durable epochs, got %v", epochs)
	}
	newest := epochs[len(epochs)-1]
	path := filepath.Join(dir, "blobs", "g", epochLabel(newest)+snapSuffix)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newDurableServer(t, dir, Config{SnapshotEvery: 60, RetainEpochs: 4})
	if n, err := s2.RecoverAll(); err != nil || n != 1 {
		t.Fatalf("RecoverAll = %d, %v", n, err)
	}
	e, _ := s2.reg.Get("g")
	// The fallback epoch plus whatever tail survives cannot exceed the
	// true final state; it must be a valid graph the daemon can serve.
	if e.Graph.NumVertices() != vertices {
		t.Fatalf("fallback recovered %d vertices, want %d", e.Graph.NumVertices(), vertices)
	}
	ingestDirect(t, s2, "g", "post-recovery", workload[0])
}

// TestReadyzRecovering pins the /readyz contract during boot-time replay.
func TestReadyzRecovering(t *testing.T) {
	s := newDurableServer(t, t.TempDir(), Config{})
	s.SetReady(false)
	s.SetRecovering(true)
	ts := newHTTPServer(t, s)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during recovery: HTTP %d, want 503", resp.StatusCode)
	}
	var body struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "recovering" {
		t.Fatalf("readyz status %q, want \"recovering\"", body.Status)
	}
	s.SetRecovering(false)
	resp2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var body2 struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&body2); err != nil {
		t.Fatal(err)
	}
	if body2.Status != "starting" {
		t.Fatalf("readyz status %q after recovery, want \"starting\"", body2.Status)
	}
}

// TestEpochsEndpointAndPointInTime exercises the history surface: the
// epochs listing and ?epoch=E kernel reads against retained snapshots.
func TestEpochsEndpointAndPointInTime(t *testing.T) {
	const vertices = 30
	dir := t.TempDir()
	s := newDurableServer(t, dir, Config{SnapshotEvery: -1, RetainEpochs: 8})
	if _, err := s.AddLive("g", vertices); err != nil {
		t.Fatal(err)
	}
	ts := newHTTPServer(t, s)

	// Two published epochs with different edge counts.
	ingestDirect(t, s, "g", "b-0", []stream.Update{{U: 0, V: 1, Time: 1}, {U: 1, V: 2, Time: 2}})
	e1, _ := s.reg.Get("g")
	epoch1, edges1 := e1.Epoch, e1.Graph.NumEdges()
	ingestDirect(t, s, "g", "b-1", []stream.Update{{U: 2, V: 3, Time: 3}, {U: 3, V: 4, Time: 4}})
	e2, _ := s.reg.Get("g")
	epoch2, edges2 := e2.Epoch, e2.Graph.NumEdges()
	if epoch1 == epoch2 || edges1 == edges2 {
		t.Fatalf("test needs two distinct epochs: %d/%d edges %d/%d", epoch1, epoch2, edges1, edges2)
	}

	resp, err := http.Get(ts.URL + "/graphs/g/epochs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Name    string   `json:"name"`
		Current uint64   `json:"current"`
		Durable []uint64 `json:"durable"`
		Live    bool     `json:"live"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if listing.Current != epoch2 || !listing.Live {
		t.Fatalf("epochs listing %+v, want current %d live", listing, epoch2)
	}
	found := map[uint64]bool{}
	for _, ep := range listing.Durable {
		found[ep] = true
	}
	if !found[epoch1] || !found[epoch2] {
		t.Fatalf("durable epochs %v missing %d or %d", listing.Durable, epoch1, epoch2)
	}

	stats := func(url string) (int, int64, string) {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body struct {
			Edges int64 `json:"edges"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&body)
		return resp.StatusCode, body.Edges, resp.Header.Get("X-Graphct-Epoch")
	}
	if code, edges, hdr := stats(ts.URL + "/graphs/g/stats"); code != 200 || edges != edges2 || hdr != fmt.Sprint(epoch2) {
		t.Fatalf("current stats: %d, %d edges, epoch %s", code, edges, hdr)
	}
	if code, edges, hdr := stats(fmt.Sprintf("%s/graphs/g/stats?epoch=%d", ts.URL, epoch1)); code != 200 || edges != edges1 || hdr != fmt.Sprint(epoch1) {
		t.Fatalf("point-in-time stats: %d, %d edges (want %d), epoch %s (want %d)", code, edges, edges1, hdr, epoch1)
	}
	// Served again — now from the historical cache — identically.
	if code, edges, _ := stats(fmt.Sprintf("%s/graphs/g/stats?epoch=%d", ts.URL, epoch1)); code != 200 || edges != edges1 {
		t.Fatalf("cached point-in-time stats: %d, %d edges", code, edges)
	}
	if code, _, _ := stats(ts.URL + "/graphs/g/stats?epoch=999999"); code != http.StatusNotFound {
		t.Fatalf("unknown epoch: HTTP %d, want 404", code)
	}
	if code, _, _ := stats(ts.URL + "/graphs/g/stats?epoch=bogus"); code != http.StatusBadRequest {
		t.Fatalf("malformed epoch: HTTP %d, want 400", code)
	}
}

// TestDurableLiveNameValidation: names that cannot map onto blob keys and
// file paths are rejected up front when durability is on.
func TestDurableLiveNameValidation(t *testing.T) {
	s := newDurableServer(t, t.TempDir(), Config{})
	for _, name := range []string{"../escape", "a/b", "", "a b", "a\x00b"} {
		if _, err := s.AddLive(name, 10); err == nil {
			t.Errorf("AddLive(%q) succeeded on a durable server", name)
		}
	}
	if _, err := s.AddLive("ok-name.v2", 10); err != nil {
		t.Fatalf("AddLive(ok-name.v2): %v", err)
	}
}

// TestDeleteDropsDurableState: deleting a durable live graph removes its
// snapshots and log, so a restart does not resurrect it.
func TestDeleteDropsDurableState(t *testing.T) {
	dir := t.TempDir()
	s := newDurableServer(t, dir, Config{SnapshotEvery: -1})
	if _, err := s.AddLive("g", 20); err != nil {
		t.Fatal(err)
	}
	ingestDirect(t, s, "g", "b", []stream.Update{{U: 0, V: 1, Time: 1}})
	ts := newHTTPServer(t, s)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/graphs/g", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: HTTP %d", resp.StatusCode)
	}

	s2 := newDurableServer(t, dir, Config{})
	if n, err := s2.RecoverAll(); err != nil || n != 0 {
		t.Fatalf("RecoverAll after delete = %d, %v; want 0, nil", n, err)
	}
	if _, ok := s2.reg.Get("g"); ok {
		t.Fatal("deleted graph resurrected by recovery")
	}
}

// TestRetentionPrunes: the snapshot history is bounded by RetainEpochs and
// stale WAL segments do not accumulate.
func TestRetentionPrunes(t *testing.T) {
	const retain = 2
	dir := t.TempDir()
	s := newDurableServer(t, dir, Config{SnapshotEvery: -1, RetainEpochs: retain})
	if _, err := s.AddLive("g", 50); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 10; b++ {
		ingestDirect(t, s, "g", fmt.Sprintf("b-%d", b),
			[]stream.Update{{U: int32(b), V: int32(b + 1), Time: int64(b)}})
	}
	epochs := listDurableEpochs(t, s, "g")
	if len(epochs) > retain {
		t.Fatalf("retained %d snapshot epochs, cap %d: %v", len(epochs), retain, epochs)
	}
	segs, err := s.walSegments("g")
	if err != nil {
		t.Fatal(err)
	}
	// Segments are retained while their base snapshot is (followers finish
	// sealed segments from them), so the bound is the retention window,
	// and no retained segment may predate the oldest retained snapshot.
	if len(segs) == 0 || len(segs) > retain {
		t.Fatalf("WAL segments not bounded by retention: %v", segs)
	}
	if segs[0] < epochs[0] {
		t.Fatalf("segment %d predates oldest retained snapshot %d", segs[0], epochs[0])
	}
}
