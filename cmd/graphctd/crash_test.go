package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphct/internal/blob"
	"graphct/internal/cluster"
	"graphct/internal/graph"
	"graphct/internal/stream"
)

// TestCrashRecovery is the acceptance scenario end to end, against the
// real binary: stream batches into a durable graphctd, SIGKILL it with a
// batch in flight, restart it over the same data directory, retry the
// unacked tail, and require the recovered graph to be bit-identical —
// adjacency, edge count, triangle counts — to an uninterrupted replay of
// the same batch sequence through internal/stream.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real daemons; skipped in -short")
	}
	const (
		vertices  = 200
		batches   = 30
		perBatch  = 25
		killAfter = 18 // acked batches before the SIGKILL
	)
	bin := buildDaemon(t)
	dataDir := t.TempDir()
	addr := freeAddr(t)
	base := "http://" + addr
	args := []string{
		"-addr", addr,
		"-data-dir", dataDir,
		"-graph", "live=live:" + strconv.Itoa(vertices),
		"-snapshot-every", "150",
	}

	workload := crashBatches(42, vertices, batches, perBatch)

	daemon := startDaemon(t, bin, args)
	waitReady(t, base)

	epochs := []uint64{}
	trackEpoch := func(resp *http.Response) {
		if h := resp.Header.Get("X-Graphct-Epoch"); h != "" {
			if e, err := strconv.ParseUint(h, 10, 64); err == nil {
				epochs = append(epochs, e)
			}
		}
	}
	for b := 0; b < killAfter; b++ {
		resp := postBatch(t, base, b, workload[b])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: HTTP %d", b, resp.StatusCode)
		}
		trackEpoch(resp)
		resp.Body.Close()
	}

	// Fire the next batch and SIGKILL the daemon while it is in flight:
	// the batch may or may not have been applied and logged — exactly the
	// ambiguity a crashed client faces. The retry after restart must be
	// correct either way (WAL replay + idempotency window).
	inflight := make(chan struct{})
	go func() {
		defer close(inflight)
		resp, err := http.Post(ingestURL(base, killAfter), "application/json",
			bytes.NewReader(encodeBatch(t, workload[killAfter])))
		if err == nil {
			resp.Body.Close()
		}
	}()
	_ = daemon.Process.Kill() // SIGKILL: no shutdown path runs
	<-inflight
	_ = daemon.Wait()

	// Restart over the same data directory and resend everything the
	// client never saw acked, with the same batch ids.
	daemon2 := startDaemon(t, bin, args)
	waitReady(t, base)
	for b := killAfter; b < batches; b++ {
		resp := postBatch(t, base, b, workload[b])
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d after restart: HTTP %d", b, resp.StatusCode)
		}
		trackEpoch(resp)
		resp.Body.Close()
	}
	// Flush, so the final state is published and durable.
	resp, err := http.Post(base+"/graphs/live/snapshot", "application/json", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("final snapshot: %v / %v", err, resp)
	}
	resp.Body.Close()

	// Reference: one uninterrupted replay of the same 30 batches.
	clean := stream.New(vertices)
	for _, batch := range workload {
		if _, err := clean.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	wantGraph := clean.Snapshot()

	// The serving surface agrees with the reference…
	var stats struct {
		Edges    int64   `json:"edges"`
		Vertices int     `json:"vertices"`
		Global   float64 `json:"global_clustering"`
	}
	getJSON(t, base+"/graphs/live/stats", &stats)
	if stats.Edges != wantGraph.NumEdges() || stats.Vertices != vertices {
		t.Fatalf("served %d edges / %d vertices, clean replay has %d / %d",
			stats.Edges, stats.Vertices, wantGraph.NumEdges(), vertices)
	}
	var cc struct {
		Global float64 `json:"global_clustering"`
	}
	getJSON(t, base+"/graphs/live/clustering", &cc)
	if want := cluster.Global(wantGraph); cc.Global != want {
		t.Fatalf("served clustering %v, clean replay %v", cc.Global, want)
	}

	// …and so do the durable bytes: the newest on-disk snapshot is
	// bit-identical to the reference adjacency.
	snapPath := newestSnapshot(t, filepath.Join(dataDir, "blobs", "live"))
	snap, err := blob.ReadSnapshotFile(snapPath)
	if err != nil {
		t.Fatalf("read durable snapshot %s: %v", snapPath, err)
	}
	graphsEqual(t, snap.Graph, wantGraph)

	// Epochs observed by the client never went backwards, across the kill.
	for i := 1; i < len(epochs); i++ {
		if epochs[i] < epochs[i-1] {
			t.Fatalf("epoch went backwards across restart: %d after %d", epochs[i], epochs[i-1])
		}
	}

	// The recovery metrics say what happened.
	var metrics struct {
		RecoveredGraphs  int64 `json:"recovered_graphs"`
		RecoveredBatches int64 `json:"recovered_batches"`
		RecoveryMs       int64 `json:"recovery_ms"`
	}
	getJSON(t, base+"/metrics", &metrics)
	if metrics.RecoveredGraphs != 1 {
		t.Fatalf("recovered_graphs = %d, want 1", metrics.RecoveredGraphs)
	}

	_ = daemon2.Process.Kill()
	_ = daemon2.Wait()
}

// crashBatches mirrors the server soak generator: a deterministic seeded
// workload of inserts and deletes.
func crashBatches(seed int64, n, batches, perBatch int) [][]stream.Update {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]stream.Update, batches)
	for b := range out {
		batch := make([]stream.Update, perBatch)
		for i := range batch {
			batch[i] = stream.Update{
				U:    int32(rng.Intn(n)),
				V:    int32(rng.Intn(n)),
				Time: int64(b*perBatch + i),
				Del:  rng.Intn(5) == 0,
			}
		}
		out[b] = batch
	}
	return out
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "graphctd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func startDaemon(t *testing.T, bin string, args []string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start daemon: %v", err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	})
	return cmd
}

func waitReady(t *testing.T, base string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon not ready in time (last err %v)", err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

func ingestURL(base string, b int) string {
	return fmt.Sprintf("%s/graphs/live/ingest?batch_id=crash-%d", base, b)
}

func encodeBatch(t *testing.T, batch []stream.Update) []byte {
	t.Helper()
	type ju struct {
		U    int32 `json:"u"`
		V    int32 `json:"v"`
		Time int64 `json:"time,omitempty"`
		Del  bool  `json:"del,omitempty"`
	}
	out := make([]ju, len(batch))
	for i, up := range batch {
		out[i] = ju{U: up.U, V: up.V, Time: up.Time, Del: up.Del}
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postBatch(t *testing.T, base string, b int, batch []stream.Update) *http.Response {
	t.Helper()
	resp, err := http.Post(ingestURL(base, b), "application/json", bytes.NewReader(encodeBatch(t, batch)))
	if err != nil {
		t.Fatalf("batch %d: %v", b, err)
	}
	return resp
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// newestSnapshot returns the lexicographically last .snap under dir —
// zero-padded epoch keys make that the newest.
func newestSnapshot(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read snapshot dir: %v", err)
	}
	last := ""
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".snap" {
			last = e.Name()
		}
	}
	if last == "" {
		t.Fatalf("no durable snapshots under %s", dir)
	}
	return filepath.Join(dir, last)
}

func graphsEqual(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("graph shape: got %d vertices / %d edges, want %d / %d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := int32(0); int(v) < want.NumVertices(); v++ {
		g, w := got.Neighbors(v), want.Neighbors(v)
		if len(g) != len(w) {
			t.Fatalf("vertex %d: got %d neighbors, want %d", v, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("vertex %d neighbor %d: got %d, want %d", v, i, g[i], w[i])
			}
		}
	}
}

// TestPreloadKeepsUnrecoveredGraph: restarting with -graph NAME=live:N
// over a durable graph whose recovery fails (every snapshot corrupted)
// must not create an empty graph under that name — its first commit would
// become the newest durable epoch and retention would prune the real
// ones. The daemon exits non-zero with the recovery error instead, and
// every durable file is byte-identical afterwards.
func TestPreloadKeepsUnrecoveredGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills real daemons; skipped in -short")
	}
	const vertices = 60
	bin := buildDaemon(t)
	dataDir := t.TempDir()
	addr := freeAddr(t)
	base := "http://" + addr
	args := []string{
		"-addr", addr,
		"-data-dir", dataDir,
		"-graph", "live=live:" + strconv.Itoa(vertices),
		"-snapshot-every", "20",
	}
	daemon := startDaemon(t, bin, args)
	waitReady(t, base)
	for b, batch := range crashBatches(9, vertices, 4, 15) {
		resp := postBatch(t, base, b, batch)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d: HTTP %d", b, resp.StatusCode)
		}
		resp.Body.Close()
	}
	_ = daemon.Process.Kill()
	_ = daemon.Wait()

	snaps, err := filepath.Glob(filepath.Join(dataDir, "blobs", "live", "*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no durable snapshots: %v", err)
	}
	for _, p := range snaps {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := readFiles(t, dataDir)

	var out bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Fatalf("daemon exited with %v, want a non-zero status\n%s", err, out.String())
		}
	case <-time.After(20 * time.Second):
		_ = cmd.Process.Kill()
		<-done
		t.Fatalf("daemon kept running over an unrecovered graph\n%s", out.String())
	}
	if !strings.Contains(out.String(), `recover "live"`) {
		t.Fatalf("exit message does not carry the recovery error:\n%s", out.String())
	}
	after := readFiles(t, dataDir)
	if len(after) != len(before) {
		t.Fatalf("%d durable files before, %d after", len(before), len(after))
	}
	for p, data := range before {
		if !bytes.Equal(after[p], data) {
			t.Fatalf("%s changed", p)
		}
	}
}

// readFiles maps every file under dir to its contents.
func readFiles(t *testing.T, dir string) map[string][]byte {
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
