package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"graphct/internal/failpoint"
	"graphct/internal/gen"
)

// bgGet issues a request whose outcome nobody checks — used to occupy
// pool slots from goroutines, where t.Fatal is off limits.
func bgGet(url string) {
	resp, err := http.Get(url)
	if err == nil {
		resp.Body.Close()
	}
}

// armFailpoints arms spec on the process-wide registry and guarantees
// cleanup, so one test's chaos never leaks into the next.
func armFailpoints(t *testing.T, spec string) {
	t.Helper()
	t.Cleanup(failpoint.Default.DisarmAll)
	if err := failpoint.Default.ArmAll(spec); err != nil {
		t.Fatalf("arm %q: %v", spec, err)
	}
}

// TestKernelPanicIsolation is the acceptance scenario: an injected kernel
// panic yields a 500 and a kernel_panics increment while the daemon keeps
// serving — the next request on the same server returns 200.
func TestKernelPanicIsolation(t *testing.T) {
	armFailpoints(t, "kernel.exec=panic(injected chaos)*1")
	s, ts, _ := newTestServer(t, Config{}, gen.Complete(4))

	status, _, body := get(t, ts.URL+"/graphs/g/components")
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking kernel: status %d body %s, want 500", status, body)
	}
	if !bytes.Contains(body, []byte("injected chaos")) {
		t.Fatalf("500 body %s does not carry the panic value", body)
	}
	if got := s.metrics.KernelPanics.Load(); got != 1 {
		t.Fatalf("kernel_panics = %d, want 1", got)
	}

	// The budget is spent: the same daemon must serve the retry.
	status, _, body = get(t, ts.URL+"/graphs/g/components")
	if status != http.StatusOK {
		t.Fatalf("post-panic request: status %d body %s, want 200", status, body)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil || m["count"].(float64) != 1 {
		t.Fatalf("post-panic body %s, want components count 1", body)
	}
}

// TestBreakerTripsOverHTTP drives a kernel into repeated injected
// failures until the circuit breaker answers 503 without executing, then
// lets the cooldown probe heal it.
func TestBreakerTripsOverHTTP(t *testing.T) {
	armFailpoints(t, "kernel.exec=error(down)*3")
	s, ts, _ := newTestServer(t, Config{
		BreakerThreshold: 3, BreakerCooldown: 50 * time.Millisecond,
	}, gen.Complete(4))

	for i := 0; i < 3; i++ {
		if status, _, body := get(t, ts.URL+"/graphs/g/components"); status != http.StatusInternalServerError {
			t.Fatalf("failure %d: status %d body %s, want 500", i, status, body)
		}
	}
	status, hdr, body := get(t, ts.URL+"/graphs/g/components")
	if status != http.StatusServiceUnavailable || hdr.Get("X-Graphct-Breaker") != "open" {
		t.Fatalf("tripped breaker: status %d header %q body %s, want 503/open", status, hdr.Get("X-Graphct-Breaker"), body)
	}
	if runs := s.metrics.KernelRuns("components"); runs != 3 {
		t.Fatalf("open breaker still executed kernels: runs = %d, want 3", runs)
	}
	if got := s.metrics.BreakerRejected.Load(); got != 1 {
		t.Fatalf("breaker_rejected = %d, want 1", got)
	}

	// After the cooldown the failpoint budget is exhausted, so the
	// half-open probe succeeds and the breaker closes.
	time.Sleep(60 * time.Millisecond)
	if status, _, body := get(t, ts.URL+"/graphs/g/components"); status != http.StatusOK {
		t.Fatalf("probe after cooldown: status %d body %s, want 200", status, body)
	}
	if st := s.breakers.State("g/components"); st != "closed" {
		t.Fatalf("breaker state after successful probe = %s, want closed", st)
	}
}

// TestStaleServingOn429 pins degraded serving: with the pool saturated, a
// request with ?stale=allow is answered from the last computed result
// (an older epoch) with X-Graphct-Stale, while the same request without
// the opt-in stays a 429.
func TestStaleServingOn429(t *testing.T) {
	s, ts, e := newTestServer(t, Config{MaxConcurrent: 1, MaxQueued: 1}, gen.Complete(4))

	// Compute once so the stale entry exists, then bump the epoch by
	// reloading the graph under the same name.
	if status, _, _ := get(t, ts.URL+"/graphs/g/components"); status != http.StatusOK {
		t.Fatal("seed request failed")
	}
	oldEpoch := e.Epoch
	s.reg.Add("g", gen.Complete(5))

	// Saturate: one blocked leader holds the only slot, one waiter fills
	// the queue. Distinct params keep them from coalescing.
	release := make(chan struct{})
	s.beforeKernel = func(string) { <-release }
	defer close(release)
	go bgGet(ts.URL + "/graphs/g/kcentrality?samples=16")
	go bgGet(ts.URL + "/graphs/g/kcentrality?samples=17")
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("pool never saturated")
		}
		time.Sleep(time.Millisecond)
	}

	status, _, _ := get(t, ts.URL+"/graphs/g/components")
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated pool without opt-in: status %d, want 429", status)
	}
	status, hdr, body := get(t, ts.URL+"/graphs/g/components?stale=allow")
	if status != http.StatusOK || hdr.Get("X-Graphct-Source") != "stale" {
		t.Fatalf("stale=allow: status %d source %q body %s", status, hdr.Get("X-Graphct-Source"), body)
	}
	if hdr.Get("X-Graphct-Stale") != strconv.FormatUint(oldEpoch, 10) {
		t.Fatalf("X-Graphct-Stale = %q, want epoch %d", hdr.Get("X-Graphct-Stale"), oldEpoch)
	}
	if got := s.metrics.StaleServed.Load(); got != 1 {
		t.Fatalf("stale_served = %d, want 1", got)
	}
	// A kernel with nothing computed yet has no stale fallback: still 429.
	status, _, _ = get(t, ts.URL+"/graphs/g/clustering?stale=allow")
	if status != http.StatusTooManyRequests {
		t.Fatalf("stale=allow without a stale entry: status %d, want 429", status)
	}
	if status, _, _ := get(t, ts.URL+"/graphs/g/components?stale=maybe"); status != http.StatusBadRequest {
		t.Fatal("bad stale param accepted")
	}
}

// TestIngestDedup pins idempotency: a batch retried under the same
// batch_id returns the original result without double-applying.
func TestIngestDedup(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.AddLive("live", 10); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{SnapshotEvery: -1})
	ts := newHTTPServer(t, s)

	batch := []map[string]any{{"u": 0, "v": 1}, {"u": 1, "v": 2}}
	buf, _ := json.Marshal(batch)
	post := func() (int, http.Header, ingestResult) {
		resp, err := http.Post(ts.URL+"/graphs/live/ingest?batch_id=b1", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var res ingestResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header, res
	}

	status, hdr, first := post()
	if status != http.StatusOK || hdr.Get("X-Graphct-Deduped") != "" {
		t.Fatalf("first batch: status %d deduped %q", status, hdr.Get("X-Graphct-Deduped"))
	}
	if first.Inserted != 2 || first.Edges != 2 {
		t.Fatalf("first batch result %+v, want 2 inserted", first)
	}
	status, hdr, second := post()
	if status != http.StatusOK || hdr.Get("X-Graphct-Deduped") != "true" {
		t.Fatalf("retried batch: status %d deduped %q", status, hdr.Get("X-Graphct-Deduped"))
	}
	if second != first {
		t.Fatalf("deduped result %+v differs from original %+v", second, first)
	}
	if got := s.metrics.IngestDeduped.Load(); got != 1 {
		t.Fatalf("ingest_deduped = %d, want 1", got)
	}
	if batches := s.metrics.IngestBatches.Load(); batches != 1 {
		t.Fatalf("ingest_batches = %d, want 1 (no double apply)", batches)
	}
	// The edge count proves no double application.
	status, _, body := get(t, ts.URL+"/graphs/live/stats")
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"edges":2`)) {
		t.Fatalf("stats after dedup: %d %s, want 2 edges", status, body)
	}

	if resp, err := http.Post(ts.URL+"/graphs/live/ingest?batch_id="+strings.Repeat("x", 129), "application/json", bytes.NewReader(buf)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("oversized batch_id: status %d, want 400", resp.StatusCode)
		}
	}
}

// TestReadyz pins the readiness lifecycle: 503 while preloading, 200 once
// ready, 503 again when an admission queue fills.
func TestReadyz(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{MaxConcurrent: 1, MaxQueued: 1}, gen.Complete(4))

	if status, _, body := get(t, ts.URL+"/readyz"); status != http.StatusOK {
		t.Fatalf("fresh server readyz: %d %s, want 200", status, body)
	}
	s.SetReady(false)
	status, _, body := get(t, ts.URL+"/readyz")
	if status != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("starting")) {
		t.Fatalf("not-ready readyz: %d %s, want 503 starting", status, body)
	}
	// Liveness is independent of readiness.
	if status, _, _ := get(t, ts.URL+"/healthz"); status != http.StatusOK {
		t.Fatal("healthz must stay 200 while not ready")
	}
	s.SetReady(true)

	// Saturate the kernel queue: readiness flips to 503 "saturated".
	release := make(chan struct{})
	s.beforeKernel = func(string) { <-release }
	defer close(release)
	go bgGet(ts.URL + "/graphs/g/kcentrality?samples=16")
	go bgGet(ts.URL + "/graphs/g/kcentrality?samples=17")
	deadline := time.Now().Add(5 * time.Second)
	for s.pool.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("pool never saturated")
		}
		time.Sleep(time.Millisecond)
	}
	status, _, body = get(t, ts.URL+"/readyz")
	if status != http.StatusServiceUnavailable || !bytes.Contains(body, []byte("saturated")) {
		t.Fatalf("saturated readyz: %d %s, want 503 saturated", status, body)
	}
}

// TestFailpointEndpointGating: the debug endpoints (failpoints, pprof)
// are 404 unless Debug is configured, and when enabled the failpoint
// endpoint arms, lists and disarms points.
func TestFailpointEndpointGating(t *testing.T) {
	t.Cleanup(failpoint.Default.DisarmAll)

	_, tsOff, _ := newTestServer(t, Config{}, gen.Complete(4))
	if status, _, _ := get(t, tsOff.URL+"/debug/failpoints"); status != http.StatusNotFound {
		t.Fatal("failpoint endpoint exposed without Debug")
	}
	if status, _, _ := get(t, tsOff.URL+"/debug/pprof/cmdline"); status != http.StatusNotFound {
		t.Fatal("pprof exposed without Debug")
	}

	_, ts, _ := newTestServer(t, Config{Debug: true}, gen.Complete(4))
	if status, _, _ := get(t, ts.URL+"/debug/pprof/cmdline"); status != http.StatusOK {
		t.Fatalf("pprof cmdline with Debug: %d, want 200", status)
	}
	post := func(req failpointRequest) (int, []byte) {
		t.Helper()
		b, _ := json.Marshal(req)
		return postJSON(t, ts.URL+"/debug/failpoints", json.RawMessage(b))
	}
	if status, body := post(failpointRequest{Arm: "kernel.exec=error(armed-via-http)*1"}); status != http.StatusOK {
		t.Fatalf("arm: %d %s", status, body)
	}
	status, _, body := get(t, ts.URL+"/debug/failpoints")
	if status != http.StatusOK || !bytes.Contains(body, []byte("kernel.exec")) {
		t.Fatalf("list: %d %s", status, body)
	}
	if status, _, body := get(t, ts.URL+"/graphs/g/components"); status != http.StatusInternalServerError {
		t.Fatalf("armed point did not fire: %d %s", status, body)
	}
	if status, body := post(failpointRequest{DisarmAll: true}); status != http.StatusOK {
		t.Fatalf("disarm_all: %d %s", status, body)
	}
	if status, body := post(failpointRequest{}); status != http.StatusBadRequest {
		t.Fatalf("empty request: %d %s, want 400", status, body)
	}
	if status, body := post(failpointRequest{Arm: "bad spec ="}); status != http.StatusBadRequest {
		t.Fatalf("bad spec: %d %s, want 400", status, body)
	}
	if status, body := post(failpointRequest{Disarm: "never-armed"}); status != http.StatusNotFound {
		t.Fatalf("disarm unknown: %d %s, want 404", status, body)
	}
}
