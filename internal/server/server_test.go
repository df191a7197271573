package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"graphct/internal/dimacs"
	"graphct/internal/gen"
	"graphct/internal/graph"
)

// testGraph returns a deterministic scale-free-ish graph big enough that
// centrality runs are observable but fast.
func testGraph() *graph.Graph {
	return gen.PreferentialAttachment(400, 3, 1)
}

func newTestServer(t *testing.T, cfg Config, g *graph.Graph) (*Server, *httptest.Server, *GraphEntry) {
	t.Helper()
	reg := NewRegistry()
	e := reg.Add("g", g)
	s := New(reg, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, e
}

func get(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, resp.Header, body
}

// TestCoalescingCacheAndBackpressure drives the acceptance scenario: 32
// concurrent identical kcentrality requests produce exactly one kernel
// execution with identical bodies, the follow-up call is a cache hit, and
// a saturated admission queue rejects with 429.
func TestCoalescingCacheAndBackpressure(t *testing.T) {
	s, ts, e := newTestServer(t, Config{MaxConcurrent: 1, MaxQueued: 1}, testGraph())

	started := make(chan string, 64)
	release := make(chan struct{})
	s.beforeKernel = func(kernel string) {
		started <- kernel
		<-release
	}

	const clients = 32
	url := ts.URL + "/graphs/g/kcentrality?k=1&samples=16"
	key := fmt.Sprintf("g@%d/kcentrality?k=1&samples=16&top=10", e.Epoch)

	var wg sync.WaitGroup
	type reply struct {
		status int
		source string
		body   string
	}
	replies := make([]reply, clients)
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			status, hdr, body := get(t, url)
			replies[i] = reply{status, hdr.Get("X-Graphct-Source"), string(body)}
		}(i)
	}

	// The leader is now blocked inside its pool slot; wait until the
	// other 31 requests are waiting on its singleflight call.
	<-started
	deadline := time.Now().Add(10 * time.Second)
	for s.flight.waitersFor(key) != clients-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests coalesced", s.flight.waitersFor(key), clients-1)
		}
		time.Sleep(time.Millisecond)
	}

	// With the only slot held by the blocked leader, a non-coalescable
	// request fills the queue (MaxQueued=1) and the next one must be
	// rejected with 429.
	queuedDone := make(chan int, 1)
	go func() {
		status, _, _ := get(t, ts.URL+"/graphs/g/kcentrality?k=1&samples=17")
		queuedDone <- status
	}()
	for s.pool.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never reached the admission queue")
		}
		time.Sleep(time.Millisecond)
	}
	status, _, body := get(t, ts.URL+"/graphs/g/kcentrality?k=1&samples=18")
	if status != http.StatusTooManyRequests {
		t.Fatalf("expected 429 from full admission queue, got %d: %s", status, body)
	}
	if got := s.metrics.Rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	close(release) // let the leader and the queued request run
	wg.Wait()
	if qs := <-queuedDone; qs != http.StatusOK {
		t.Fatalf("queued request finished with %d, want 200", qs)
	}

	if runs := s.metrics.KernelRuns("kcentrality"); runs != 2 {
		// One coalesced run for the 32 identical requests plus the
		// queued samples=17 request; the samples=18 request was rejected.
		t.Fatalf("kernel executions = %d, want 2", runs)
	}
	coalesced := 0
	for i, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d body %s", i, r.status, r.body)
		}
		if r.body != replies[0].body {
			t.Fatalf("request %d: body diverges:\n%s\nvs\n%s", i, r.body, replies[0].body)
		}
		if r.source == "coalesced" {
			coalesced++
		}
	}
	if coalesced != clients-1 {
		t.Fatalf("coalesced replies = %d, want %d", coalesced, clients-1)
	}

	// Follow-up identical request: served from cache, no new execution.
	s.beforeKernel = nil
	status, hdr, body2 := get(t, url)
	if status != http.StatusOK || hdr.Get("X-Graphct-Source") != "cache" {
		t.Fatalf("follow-up: status %d source %q", status, hdr.Get("X-Graphct-Source"))
	}
	if string(body2) != replies[0].body {
		t.Fatalf("cached body diverges from computed body")
	}
	if got := s.metrics.CacheHits.Load(); got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
	if runs := s.metrics.KernelRuns("kcentrality"); runs != 2 {
		t.Fatalf("kernel executions after cache hit = %d, want 2", runs)
	}
}

// TestDeadlineCancellation verifies that requests whose deadline has
// expired return promptly: the beforeKernel hook outlasts the 1ms budget,
// so the kernels must notice cancellation at their first checkpoint
// instead of running to completion.
func TestDeadlineCancellation(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{MaxConcurrent: 2, MaxQueued: 4}, gen.PreferentialAttachment(3000, 3, 1))
	s.beforeKernel = func(string) { time.Sleep(20 * time.Millisecond) }

	for _, ep := range []string{
		"/graphs/g/kcentrality?samples=3000&timeout_ms=1",
		"/graphs/g/sssp?src=0&timeout_ms=1",
		"/graphs/g/diameter?timeout_ms=1",
	} {
		start := time.Now()
		status, _, body := get(t, ts.URL+ep)
		elapsed := time.Since(start)
		if status != http.StatusGatewayTimeout {
			t.Errorf("%s: status %d body %s, want 504", ep, status, body)
		}
		if elapsed > 5*time.Second {
			t.Errorf("%s: took %v after deadline expiry, not prompt", ep, elapsed)
		}
	}
	if got := s.metrics.Canceled.Load(); got != 3 {
		t.Fatalf("canceled counter = %d, want 3", got)
	}
}

// TestKernelEndpoints exercises every read-only kernel route for shape
// and status.
func TestKernelEndpoints(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, gen.Disjoint(gen.Complete(4), gen.Path(3)))
	for _, tc := range []struct {
		path string
		want map[string]float64 // numeric fields to assert
	}{
		{"/graphs/g/components", map[string]float64{"count": 2}},
		{"/graphs/g/stats", map[string]float64{"vertices": 7, "edges": 8}},
		{"/graphs/g/degrees", map[string]float64{"N": 7, "Max": 3}},
		// K4 contributes 12 closed wedges, the path's center one open
		// wedge: transitivity 12/13.
		{"/graphs/g/clustering", map[string]float64{"global_clustering": 12.0 / 13.0}},
		{"/graphs/g/diameter", map[string]float64{"Sources": 7}},
		{"/graphs/g/kcores?k=3", map[string]float64{"vertices": 4, "edges": 6}},
		{"/graphs/g/kcentrality?k=0&samples=0", map[string]float64{"sources": 7}},
		{"/graphs/g/bfs?src=0&depth=-1", map[string]float64{"reached": 4, "depth": 1}},
		{"/graphs/g/sssp?src=4", map[string]float64{"reached": 3, "max_distance": 2}},
	} {
		status, _, body := get(t, ts.URL+tc.path)
		if status != http.StatusOK {
			t.Errorf("%s: status %d body %s", tc.path, status, body)
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(body, &m); err != nil {
			t.Errorf("%s: bad JSON %s: %v", tc.path, body, err)
			continue
		}
		for field, want := range tc.want {
			got, ok := m[field].(float64)
			if !ok || got != want {
				t.Errorf("%s: field %q = %v, want %v (body %s)", tc.path, field, m[field], want, body)
			}
		}
	}
}

// TestBadRequests verifies validation happens before the serving path.
func TestBadRequests(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{}, gen.Path(5))
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/graphs/missing/components", http.StatusNotFound},
		{"/graphs/g/nosuchkernel", http.StatusNotFound},
		{"/graphs/g/kcentrality?k=99", http.StatusBadRequest},
		{"/graphs/g/kcentrality?samples=abc", http.StatusBadRequest},
		{"/graphs/g/kcentrality?epsilon=0", http.StatusBadRequest},
		{"/graphs/g/kcentrality?epsilon=1.5", http.StatusBadRequest},
		{"/graphs/g/kcentrality?epsilon=abc", http.StatusBadRequest},
		{"/graphs/g/kcentrality?epsilon=0.05&delta=0", http.StatusBadRequest},
		{"/graphs/g/kcentrality?delta=0.5", http.StatusBadRequest}, // delta without epsilon
		{"/graphs/g/kcentrality?epsilon=0.05&k=1", http.StatusBadRequest},
		{"/graphs/g/kcentrality?epsilon=0.05&samples=16", http.StatusBadRequest},
		{"/graphs/g/bfs?src=100", http.StatusBadRequest},
		{"/graphs/g/sssp?src=-1", http.StatusBadRequest},
		{"/graphs/g/kcores?k=-2", http.StatusBadRequest},
		{"/graphs/g/kcores?k=2147483648", http.StatusBadRequest}, // would truncate to MinInt32: the whole graph
		{"/graphs/g/kcores?k=4294967297", http.StatusBadRequest}, // would truncate to 1: the 1-core
		{"/graphs/g/components?timeout_ms=zero", http.StatusBadRequest},
	} {
		status, _, body := get(t, ts.URL+tc.path)
		if status != tc.want {
			t.Errorf("%s: status %d body %s, want %d", tc.path, status, body, tc.want)
		}
	}
	if got := s.metrics.Rejected.Load(); got != 0 {
		t.Fatalf("validation failures must not count as rejections, got %d", got)
	}
}

// TestGraphLifecycle loads a graph over HTTP, lists it, extracts its
// largest component as a new graph, and deletes both.
func TestGraphLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "two.dimacs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dimacs.Write(f, gen.Disjoint(gen.Complete(4), gen.Path(3))); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts, _ := newTestServer(t, Config{}, gen.Path(2))

	body, _ := json.Marshal(loadRequest{Name: "two", Format: "dimacs", Path: path})
	resp, err := http.Post(ts.URL+"/graphs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	loaded, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("load: status %d body %s", resp.StatusCode, loaded)
	}
	var info graphInfo
	if err := json.Unmarshal(loaded, &info); err != nil {
		t.Fatal(err)
	}
	if info.Vertices != 7 || info.Edges != 8 {
		t.Fatalf("loaded graph %+v, want 7 vertices 8 edges", info)
	}

	status, _, listBody := get(t, ts.URL+"/graphs")
	var list []graphInfo
	if status != http.StatusOK || json.Unmarshal(listBody, &list) != nil || len(list) != 2 {
		t.Fatalf("list: status %d body %s", status, listBody)
	}

	extract, _ := json.Marshal(extractRequest{Component: 1, As: "core"})
	resp, err = http.Post(ts.URL+"/graphs/two/extract", "application/json", bytes.NewReader(extract))
	if err != nil {
		t.Fatal(err)
	}
	exBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("extract: status %d body %s", resp.StatusCode, exBody)
	}
	var ex graphInfo
	if err := json.Unmarshal(exBody, &ex); err != nil {
		t.Fatal(err)
	}
	if ex.Name != "core" || ex.Vertices != 4 || ex.Edges != 6 {
		t.Fatalf("extracted %+v, want the K4", ex)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/graphs/two", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	status, _, _ = get(t, ts.URL+"/graphs/two/components")
	if status != http.StatusNotFound {
		t.Fatalf("deleted graph still serves: %d", status)
	}
}

// TestApproxCentralityEndpoint covers the adaptive (ε,δ) mode of the
// centrality route: guarantee fields ride in the body, responses cache by
// (epoch, ε, δ) with spelling-insensitive keys, and a reload invalidates.
func TestApproxCentralityEndpoint(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{}, testGraph())

	status, hdr, body := get(t, ts.URL+"/graphs/g/kcentrality?epsilon=0.05&delta=0.2&top=5")
	if status != http.StatusOK || hdr.Get("X-Graphct-Source") != "computed" {
		t.Fatalf("first call: %d %q body %s", status, hdr.Get("X-Graphct-Source"), body)
	}
	var m struct {
		K   int `json:"k"`
		Top []struct {
			Vertex int32   `json:"vertex"`
			Score  float64 `json:"score"`
		} `json:"top"`
		Guarantee struct {
			Epsilon     float64 `json:"epsilon"`
			Delta       float64 `json:"delta"`
			SamplesUsed int     `json:"samples_used"`
			Rounds      int     `json:"rounds"`
			Stopped     bool    `json:"stopped"`
		} `json:"guarantee"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("bad JSON %s: %v", body, err)
	}
	if m.Guarantee.Epsilon != 0.05 || m.Guarantee.Delta != 0.2 {
		t.Fatalf("guarantee = %+v, want requested (0.05, 0.2)", m.Guarantee)
	}
	if m.Guarantee.SamplesUsed <= 0 || m.Guarantee.Rounds <= 0 {
		t.Fatalf("guarantee missing sampling evidence: %+v", m.Guarantee)
	}
	if len(m.Top) != 5 {
		t.Fatalf("top = %d entries, want 5 (body %s)", len(m.Top), body)
	}

	// Same (ε,δ) in a different spelling: the canonical key makes it a
	// cache hit with a byte-identical body.
	status, hdr, body2 := get(t, ts.URL+"/graphs/g/kcentrality?epsilon=5e-2&delta=0.2&top=5")
	if status != http.StatusOK || hdr.Get("X-Graphct-Source") != "cache" {
		t.Fatalf("respelled call: %d %q, want cache hit", status, hdr.Get("X-Graphct-Source"))
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("cached body diverges from computed body")
	}

	// Different ε is a different result: must compute, not serve the
	// ε=0.05 entry.
	status, hdr, _ = get(t, ts.URL+"/graphs/g/kcentrality?epsilon=0.04&delta=0.2&top=5")
	if status != http.StatusOK || hdr.Get("X-Graphct-Source") != "computed" {
		t.Fatalf("eps change: %d %q, want computed", status, hdr.Get("X-Graphct-Source"))
	}
	// Different δ likewise.
	status, hdr, _ = get(t, ts.URL+"/graphs/g/kcentrality?epsilon=0.05&delta=0.1&top=5")
	if status != http.StatusOK || hdr.Get("X-Graphct-Source") != "computed" {
		t.Fatalf("delta change: %d %q, want computed", status, hdr.Get("X-Graphct-Source"))
	}
	if runs := s.metrics.KernelRuns("kcentrality"); runs != 3 {
		t.Fatalf("kernel executions = %d, want 3 (one per distinct (eps,delta))", runs)
	}

	// Reload the graph: a new epoch must invalidate the adaptive entries
	// like any other cached kernel result.
	s.reg.Add("g", testGraph())
	status, hdr, _ = get(t, ts.URL+"/graphs/g/kcentrality?epsilon=0.05&delta=0.2&top=5")
	if status != http.StatusOK || hdr.Get("X-Graphct-Source") != "computed" {
		t.Fatalf("post-reload: %d %q, want computed", status, hdr.Get("X-Graphct-Source"))
	}
}

// TestEpochInvalidation reloads a graph under the same name and checks
// that cached results for the old epoch are not served.
func TestEpochInvalidation(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{}, gen.Complete(4))
	status, hdr, _ := get(t, ts.URL+"/graphs/g/components")
	if status != http.StatusOK || hdr.Get("X-Graphct-Source") != "computed" {
		t.Fatalf("first call: %d %q", status, hdr.Get("X-Graphct-Source"))
	}
	status, hdr, _ = get(t, ts.URL+"/graphs/g/components")
	if status != http.StatusOK || hdr.Get("X-Graphct-Source") != "cache" {
		t.Fatalf("second call: %d %q", status, hdr.Get("X-Graphct-Source"))
	}
	s.reg.Add("g", gen.Disjoint(gen.Path(2), gen.Path(2)))
	status, hdr, body := get(t, ts.URL+"/graphs/g/components")
	if status != http.StatusOK || hdr.Get("X-Graphct-Source") != "computed" {
		t.Fatalf("post-reload call: %d %q", status, hdr.Get("X-Graphct-Source"))
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil || m["count"].(float64) != 2 {
		t.Fatalf("post-reload body %s, want count 2", body)
	}
}

// TestHealthzAndMetrics checks the operational endpoints' shape.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, gen.Path(4))
	status, _, body := get(t, ts.URL+"/healthz")
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", status, body)
	}
	get(t, ts.URL+"/graphs/g/components")
	get(t, ts.URL+"/graphs/g/components")
	status, _, body = get(t, ts.URL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("metrics: %d", status)
	}
	var snap struct {
		Requests   int64                        `json:"requests"`
		CacheHits  int64                        `json:"cache_hits"`
		CacheMiss  int64                        `json:"cache_misses"`
		KernelRuns map[string]int64             `json:"kernel_runs"`
		LatencyMs  map[string]HistogramSnapshot `json:"latency_ms"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("metrics JSON: %v in %s", err, body)
	}
	if snap.Requests != 2 || snap.CacheHits != 1 || snap.CacheMiss != 1 {
		t.Fatalf("metrics %+v, want 2 requests, 1 hit, 1 miss", snap)
	}
	if snap.KernelRuns["components"] != 1 {
		t.Fatalf("kernel_runs %v, want components:1", snap.KernelRuns)
	}
	if h, ok := snap.LatencyMs["components"]; !ok || h.Count != 1 {
		t.Fatalf("latency histogram %v, want one components observation", snap.LatencyMs)
	}
}

// TestMetricsWireContract pins the /metrics document: its exact key set and
// each value's kind. benchmark/serve.go reads it as map[string]any and
// subtracts counters by name, cmd/graphctd's crash test reads
// recovered_graphs, so a renamed or dropped key must fail here, not there.
func TestMetricsWireContract(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, gen.Path(4))
	get(t, ts.URL+"/graphs/g/components") // kernel_runs and latency_ms appear once a kernel ran
	_, _, body := get(t, ts.URL+"/metrics")
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("metrics JSON: %v in %s", err, body)
	}
	numbers := []string{
		"requests", "cache_hits", "cache_misses", "coalesced", "rejected", "canceled", "kcore_profiles",
		"queue_depth", "running", "cache_bytes", "cache_items",
		"kernel_panics", "breaker_rejected", "breaker_trips", "stale_served",
		"cache_put_dropped", "rate_limited", "cache_oversized", "rate_limit_clients",
		"cheap_reserved", "cheap_queue_depth", "expensive_queue_depth", "expensive_running",
		"ingest_batches", "ingest_updates", "ingest_mutations", "ingest_rejected",
		"ingest_deduped", "ingest_panics", "snapshots", "snapshots_deferred",
		"ingest_queue_depth", "ingest_running",
		"wal_appends", "wal_errors", "wal_torn_tails", "snapshots_persisted",
		"snapshot_bytes", "persist_errors", "recovered_graphs", "recovered_batches", "recovery_ms",
		"replica_bootstraps", "replica_batches", "replica_epochs", "replica_errors",
	}
	objects := []string{"kernel_runs", "latency_ms"}
	for _, key := range numbers {
		if _, ok := doc[key].(float64); !ok {
			t.Errorf("/metrics %q = %v (%T), want a number", key, doc[key], doc[key])
		}
	}
	for _, key := range objects {
		if _, ok := doc[key].(map[string]any); !ok {
			t.Errorf("/metrics %q = %v (%T), want an object", key, doc[key], doc[key])
		}
	}
	if want := len(numbers) + len(objects); len(doc) != want {
		t.Errorf("/metrics has %d keys, want %d: %s", len(doc), want, body)
	}
}

// TestCacheLRU checks the byte bound and eviction order directly.
func TestCacheLRU(t *testing.T) {
	c := NewCache(100)
	val := func(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }
	c.Put("a", val(40))
	c.Put("b", val(40))
	if c.Bytes() != 80 || c.Len() != 2 {
		t.Fatalf("bytes=%d len=%d, want 80/2", c.Bytes(), c.Len())
	}
	c.Get("a") // refresh a; b becomes LRU
	c.Put("c", val(40))
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction despite being LRU")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite recent use")
	}
	c.Put("huge", val(200)) // larger than the bound: never stored
	if _, ok := c.Get("huge"); ok {
		t.Fatal("oversized value was cached")
	}
	c.Put("a", val(90)) // resize in place forces eviction of c
	if _, ok := c.Get("c"); ok {
		t.Fatal("c survived eviction after a grew")
	}
	if c.Bytes() != 90 {
		t.Fatalf("bytes=%d after resize, want 90", c.Bytes())
	}

	off := NewCache(0)
	off.Put("k", val(10))
	if _, ok := off.Get("k"); ok {
		t.Fatal("disabled cache stored a value")
	}
}

// TestConcurrentRequestsShareOneSymmetrization pins the per-epoch
// undirected memo: 8 concurrent kcentrality requests with distinct
// parameters (so neither the cache nor singleflight can merge them) on a
// directed graph must trigger exactly one symmetrization.
func TestConcurrentRequestsShareOneSymmetrization(t *testing.T) {
	dg := gen.Follower(gen.DefaultFollower(300, 1))
	if !dg.Directed() {
		t.Fatal("test wants a directed graph")
	}
	_, ts, e := newTestServer(t, Config{MaxConcurrent: 8, MaxQueued: 64}, dg)

	const requests = 8
	var wg sync.WaitGroup
	errs := make(chan error, requests)
	wg.Add(requests)
	for i := 0; i < requests; i++ {
		go func(i int) {
			defer wg.Done()
			// Distinct samples => distinct cache keys => every request
			// executes a kernel of its own.
			url := fmt.Sprintf("%s/graphs/g/kcentrality?samples=%d", ts.URL, 16+i)
			resp, err := http.Get(url)
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if builds := e.Graph.UndirectedBuilds(); builds != 1 {
		t.Fatalf("%d concurrent kcentrality requests symmetrized %d times, want 1", requests, builds)
	}
	if e.Undirected() != e.Graph.Undirected() {
		t.Fatal("registry entry and graph disagree on the undirected view")
	}
}

// TestBFSEndpointContract pins what /bfs shows its clients, whichever
// search entry point is behind it: the JSON body, the cache key (an
// omitted depth and depth=-1 are one entry), depth=0 reaching only the
// source, and a directed graph searched along its out-arcs.
func TestBFSEndpointContract(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{}, gen.Disjoint(gen.Complete(4), gen.Path(3)))
	for _, tc := range []struct {
		query, body, source string
	}{
		{"src=0", `{"depth":1,"reached":4,"src":0}`, "computed"},
		{"depth=-1&src=0", `{"depth":1,"reached":4,"src":0}`, "cache"},
		{"src=4&depth=1", `{"depth":1,"reached":2,"src":4}`, "computed"},
		{"src=4&depth=0", `{"depth":0,"reached":1,"src":4}`, "computed"},
		{"src=4&depth=9", `{"depth":2,"reached":3,"src":4}`, "computed"},
	} {
		status, hdr, body := get(t, ts.URL+"/graphs/g/bfs?"+tc.query)
		if status != http.StatusOK || string(bytes.TrimSpace(body)) != tc.body || hdr.Get("X-Graphct-Source") != tc.source {
			t.Errorf("bfs?%s: %d %q from %q, want 200 %q from %q",
				tc.query, status, body, hdr.Get("X-Graphct-Source"), tc.body, tc.source)
		}
	}

	chain, err := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, graph.Options{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	_, dts, _ := newTestServer(t, Config{}, chain)
	for query, want := range map[string]string{
		"src=0": `{"depth":2,"reached":3,"src":0}`,
		"src=2": `{"depth":0,"reached":1,"src":2}`, // no arc leaves the tail
	} {
		if _, _, body := get(t, dts.URL+"/graphs/g/bfs?"+query); string(bytes.TrimSpace(body)) != want {
			t.Errorf("directed bfs?%s: %q, want %q", query, body, want)
		}
	}
}
