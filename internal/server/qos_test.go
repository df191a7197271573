package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphct/internal/load"
	"graphct/internal/testutil"
)

// acquireResult runs Acquire in a goroutine and reports its error on a
// channel, so tests can assert "this admission blocks" without deadlocking.
func acquireAsync(p *LanePool, class string) chan error {
	ch := make(chan error, 1)
	go func() { ch <- p.Acquire(context.Background(), class) }()
	return ch
}

func mustAcquire(t *testing.T, p *LanePool, class string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Acquire(ctx, class); err != nil {
		t.Fatalf("Acquire(%s): %v", class, err)
	}
}

func mustBlock(t *testing.T, p *LanePool, class string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := p.Acquire(ctx, class); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Acquire(%s) = %v, want to block until deadline", class, err)
	}
}

// TestLanePoolReservedExclusion is QoS invariant (a): with reserved cheap
// slots, the expensive class can never occupy them — its admissions cap at
// maxRunning-reserved, so a cheap request always finds a slot no matter
// how many expensive requests are in flight or queued.
func TestLanePoolReservedExclusion(t *testing.T) {
	p := NewLanePool(2, 1, 16)
	if p.Reserved() != 1 {
		t.Fatalf("Reserved() = %d", p.Reserved())
	}

	mustAcquire(t, p, ClassExpensive)
	if got := p.ExpensiveRunning(); got != 1 {
		t.Fatalf("expensive running = %d, want 1", got)
	}
	// The second expensive request must NOT take the remaining slot: that
	// one is reserved for cheap.
	mustBlock(t, p, ClassExpensive)

	// Invariant (b): the expensive lane is saturated (slot held and a
	// waiter just timed out), yet cheap admission succeeds instantly.
	mustAcquire(t, p, ClassCheap)
	if got := p.Running(); got != 2 {
		t.Fatalf("running = %d, want 2", got)
	}
	// Now the pool is truly full: cheap also waits.
	mustBlock(t, p, ClassCheap)

	// Releasing the cheap slot readmits cheap but still not expensive.
	p.Release(ClassCheap)
	mustBlock(t, p, ClassExpensive)
	mustAcquire(t, p, ClassCheap)

	p.Release(ClassCheap)
	p.Release(ClassExpensive)
	if got := p.Running(); got != 0 {
		t.Fatalf("running after releases = %d", got)
	}
	if got := p.ExpensiveRunning(); got != 0 {
		t.Fatalf("expensive running after releases = %d", got)
	}
}

// TestLanePoolPerLaneQueues: each class queues separately under its own
// maxQueued bound, so an expensive burst filling its queue neither
// consumes cheap queue capacity nor vice versa.
func TestLanePoolPerLaneQueues(t *testing.T) {
	p := NewLanePool(2, 1, 1) // 1 expensive slot, 1 reserved, 1 waiter per lane
	mustAcquire(t, p, ClassExpensive)
	mustAcquire(t, p, ClassCheap)

	// One waiter per lane fits the queue...
	expWait := acquireAsync(p, ClassExpensive)
	cheapWait := acquireAsync(p, ClassCheap)
	deadline := time.Now().Add(5 * time.Second)
	for {
		c, e := p.LaneDepths()
		if c == 1 && e == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lane depths cheap=%d exp=%d, want 1/1", c, e)
		}
		time.Sleep(time.Millisecond)
	}
	if p.QueueDepth() != 2 {
		t.Fatalf("QueueDepth = %d, want 2", p.QueueDepth())
	}
	if p.Accepting() {
		t.Fatal("cheap lane at queue capacity still reports accepting")
	}

	// ...and the next in EACH lane fails fast with ErrQueueFull.
	if err := p.Acquire(context.Background(), ClassExpensive); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("expensive over-queue: %v, want ErrQueueFull", err)
	}
	if err := p.Acquire(context.Background(), ClassCheap); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("cheap over-queue: %v, want ErrQueueFull", err)
	}

	// Drain: each release admits the matching waiter.
	p.Release(ClassCheap)
	if err := <-cheapWait; err != nil {
		t.Fatalf("queued cheap acquire: %v", err)
	}
	p.Release(ClassExpensive)
	if err := <-expWait; err != nil {
		t.Fatalf("queued expensive acquire: %v", err)
	}
	p.Release(ClassCheap)
	p.Release(ClassExpensive)
}

// TestLanePoolDisabled: reserved <= 0 must behave exactly like the old
// shared pool — expensive requests may hold every slot.
func TestLanePoolDisabled(t *testing.T) {
	p := NewLanePool(2, 0, 4)
	mustAcquire(t, p, ClassExpensive)
	mustAcquire(t, p, ClassExpensive)
	if got := p.Running(); got != 2 {
		t.Fatalf("running = %d", got)
	}
	mustBlock(t, p, ClassCheap)
	p.Release(ClassExpensive)
	p.Release(ClassExpensive)

	// The laneless pool is the ingest pool: slot accounting and queue
	// rejection without HTTP in the way.
	p = NewLanePool(1, 0, 1)
	if err := p.Acquire(t.Context(), ClassCheap); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- p.Acquire(t.Context(), ClassCheap) }()
	deadline := time.Now().Add(5 * time.Second)
	for p.QueueDepth() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.Acquire(t.Context(), ClassCheap); err != ErrQueueFull {
		t.Fatalf("third acquire: %v, want ErrQueueFull", err)
	}
	p.Release(ClassCheap)
	if err := <-acquired; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	p.Release(ClassCheap)
	if p.Running() != 0 || p.QueueDepth() != 0 {
		t.Fatalf("pool not drained: running=%d queued=%d", p.Running(), p.QueueDepth())
	}
}

func TestCostClass(t *testing.T) {
	for kernel, want := range map[string]string{
		"kcentrality": ClassExpensive,
		"diameter":    ClassExpensive,
		"stats":       ClassCheap,
		"bfs":         ClassCheap,
		"components":  ClassCheap,
		"kcores":      ClassCheap,
	} {
		if got := costClass(kernel); got != want {
			t.Errorf("costClass(%s) = %s, want %s", kernel, got, want)
		}
	}
}

func TestRateLimiterBuckets(t *testing.T) {
	l := NewRateLimiter(2, 4)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l.now = clk.now

	for i := 0; i < 4; i++ {
		if ok, _ := l.Allow("a"); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, wait := l.Allow("a")
	if ok {
		t.Fatal("drained bucket admitted")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("retry hint %v, want ~0.5s", wait)
	}
	// Another client is unaffected.
	if ok, _ := l.Allow("b"); !ok {
		t.Fatal("fresh client rejected")
	}
	// Tokens accrue at rate: after 500ms one token is back.
	clk.advance(500 * time.Millisecond)
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("refilled bucket rejected")
	}
	// Idle time caps at burst, it does not bank indefinitely.
	clk.advance(time.Hour)
	admitted := 0
	for i := 0; i < 10; i++ {
		if ok, _ := l.Allow("a"); ok {
			admitted++
		}
	}
	if admitted != 4 {
		t.Fatalf("after long idle, admitted %d, want burst 4", admitted)
	}

	var nilLimiter *RateLimiter
	if ok, _ := nilLimiter.Allow("x"); !ok {
		t.Fatal("nil limiter must admit everything")
	}
	if nilLimiter.Clients() != 0 {
		t.Fatal("nil limiter reports clients")
	}
	if NewRateLimiter(0, 5) != nil {
		t.Fatal("rate 0 should build a nil (disabled) limiter")
	}
}

// TestRateLimiterPrune: a flood of distinct client IDs is bounded — once
// the map hits maxRateClients, fully-refilled (idle) buckets are dropped.
func TestRateLimiterPrune(t *testing.T) {
	l := NewRateLimiter(1000, 1)
	clk := &fakeClock{t: time.Unix(1000, 0)}
	l.now = clk.now
	for i := 0; i < maxRateClients; i++ {
		l.Allow("client-" + strconv.Itoa(i))
	}
	if got := l.Clients(); got != maxRateClients {
		t.Fatalf("tracked %d clients, want %d", got, maxRateClients)
	}
	clk.advance(time.Second) // every bucket refills
	l.Allow("newcomer")
	if got := l.Clients(); got != 1 {
		t.Fatalf("after prune: %d clients tracked, want 1", got)
	}
}

// TestCacheMaxEntry: cost-aware admission — results over the per-entry
// bound are never cached, so one giant diameter result cannot evict
// hundreds of cheap stats entries.
func TestCacheMaxEntry(t *testing.T) {
	c := NewCache(100)
	c.SetMaxEntry(10)
	if !c.Put("small", make([]byte, 8)) {
		t.Fatal("small entry rejected")
	}
	if _, ok := c.Get("small"); !ok {
		t.Fatal("small entry not retrievable")
	}
	if c.Put("big", make([]byte, 11)) {
		t.Fatal("oversized entry admitted")
	}
	if _, ok := c.Get("big"); ok {
		t.Fatal("oversized entry cached anyway")
	}
	// 0 disables the per-entry bound (whole-cache bound still applies).
	c.SetMaxEntry(0)
	if !c.Put("big", make([]byte, 11)) {
		t.Fatal("entry under cache bound rejected with maxEntry disabled")
	}
	if c.Put("huge", make([]byte, 101)) {
		t.Fatal("entry over the whole-cache bound admitted")
	}
}

// TestQoSLaneIsolationHTTP drives invariants (a) and (b) through the full
// serving path: with one reserved slot, a second concurrent centrality
// request waits in the expensive queue rather than taking the last slot,
// and cheap reads keep completing promptly meanwhile. Class attribution
// travels on every response as X-Graphct-Class.
func TestQoSLaneIsolationHTTP(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, ts, _ := newTestServer(t, Config{MaxConcurrent: 2, CheapReserved: 1, MaxQueued: 4}, testGraph())

	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s.beforeKernel = func(kernel string) {
		if kernel == "kcentrality" {
			started <- struct{}{}
			<-release
		}
	}

	// Two non-coalescable expensive requests. Only one may hold a slot.
	expDone := make(chan int, 2)
	for _, samples := range []string{"16", "17"} {
		go func(samples string) {
			status, hdr, _ := get(t, ts.URL+"/graphs/g/kcentrality?k=1&samples="+samples)
			if class := hdr.Get("X-Graphct-Class"); class != ClassExpensive {
				t.Errorf("kcentrality class header = %q, want %q", class, ClassExpensive)
			}
			expDone <- status
		}(samples)
	}
	<-started
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, e := s.pool.LaneDepths(); e == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second expensive request never queued in the expensive lane")
		}
		time.Sleep(time.Millisecond)
	}
	if got := s.pool.ExpensiveRunning(); got != 1 {
		t.Fatalf("expensive running = %d, want 1 (reserved slot protected)", got)
	}
	select {
	case <-started:
		t.Fatal("second expensive kernel started despite the reservation")
	default:
	}

	// (b) Expensive lane saturated — slot held, queue occupied — yet cheap
	// reads complete, and are labeled with their lane.
	for _, ep := range []string{"/graphs/g/stats", "/graphs/g/bfs?src=1", "/graphs/g/components"} {
		status, hdr, body := get(t, ts.URL+ep)
		if status != http.StatusOK {
			t.Fatalf("%s during expensive saturation: %d %s", ep, status, body)
		}
		if class := hdr.Get("X-Graphct-Class"); class != ClassCheap {
			t.Fatalf("%s class header = %q, want %q", ep, class, ClassCheap)
		}
	}

	// The lane gauges surface on /metrics.
	_, _, body := get(t, ts.URL+"/metrics")
	for _, want := range []string{`"cheap_reserved":1`, `"expensive_running":1`, `"expensive_queue_depth":1`} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %s in %s", want, body)
		}
	}

	close(release)
	for i := 0; i < 2; i++ {
		if status := <-expDone; status != http.StatusOK {
			t.Fatalf("expensive request %d finished with %d", i, status)
		}
	}
}

// TestClientRateLimitHTTP is invariant (c): per-client token buckets keyed
// on X-Graphct-Client return 429 with a Retry-After hint when drained,
// without touching other clients or the anonymous bucket.
func TestClientRateLimitHTTP(t *testing.T) {
	testutil.CheckGoroutines(t)
	s, ts, _ := newTestServer(t, Config{ClientRate: 1, ClientBurst: 2}, testGraph())
	clk := &fakeClock{t: time.Unix(1000, 0)}
	s.limiter.now = clk.now

	doGet := func(client string) (int, http.Header) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/graphs/g/stats", nil)
		if client != "" {
			req.Header.Set(ClientHeader, client)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode, resp.Header
	}

	for i := 0; i < 2; i++ {
		if status, _ := doGet("alice"); status != http.StatusOK {
			t.Fatalf("alice burst request %d: %d", i, status)
		}
	}
	status, hdr := doGet("alice")
	if status != http.StatusTooManyRequests {
		t.Fatalf("drained client got %d, want 429", status)
	}
	retry, err := strconv.Atoi(hdr.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer of seconds", hdr.Get("Retry-After"))
	}
	if class := hdr.Get("X-Graphct-Class"); class != ClassCheap {
		t.Fatalf("rate-limited response lost class attribution: %q", class)
	}
	if got := s.metrics.RateLimited.Load(); got != 1 {
		t.Fatalf("rate_limited metric = %d, want 1", got)
	}

	// Other identities — named or anonymous — are untouched.
	if status, _ := doGet("bob"); status != http.StatusOK {
		t.Fatalf("bob: %d", status)
	}
	if status, _ := doGet(""); status != http.StatusOK {
		t.Fatalf("anonymous: %d", status)
	}

	// Tokens accrue with time; alice recovers.
	clk.advance(time.Duration(retry) * time.Second)
	if status, _ := doGet("alice"); status != http.StatusOK {
		t.Fatalf("alice after Retry-After: %d", status)
	}
}

// TestQoSCoalescingWithLanes: lanes must not break request coalescing — a
// duplicate of an in-flight expensive request joins the flight instead of
// consuming a second lane admission.
func TestQoSCoalescingWithLanes(t *testing.T) {
	s, ts, e := newTestServer(t, Config{MaxConcurrent: 2, CheapReserved: 1, MaxQueued: 4}, testGraph())
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	s.beforeKernel = func(kernel string) {
		if kernel == "kcentrality" {
			started <- struct{}{}
			<-release
		}
	}
	url := ts.URL + "/graphs/g/kcentrality?k=1&samples=16"
	key := fmt.Sprintf("g@%d/kcentrality?k=1&samples=16&top=10", e.Epoch)
	done := make(chan string, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, hdr, _ := get(t, url)
			done <- hdr.Get("X-Graphct-Source")
		}()
	}
	<-started
	deadline := time.Now().Add(10 * time.Second)
	for s.flight.waitersFor(key) != 1 {
		if time.Now().After(deadline) {
			t.Fatal("duplicate expensive request did not coalesce")
		}
		time.Sleep(time.Millisecond)
	}
	// The follower coalesced: it holds no lane admission of its own.
	if got := s.pool.ExpensiveRunning(); got != 1 {
		t.Fatalf("expensive running = %d, want 1", got)
	}
	if _, e := s.pool.LaneDepths(); e != 0 {
		t.Fatalf("expensive queue depth = %d, want 0 (follower must not queue)", e)
	}
	close(release)
	sources := map[string]int{}
	for i := 0; i < 2; i++ {
		sources[<-done]++
	}
	if sources["coalesced"] != 1 {
		t.Fatalf("sources = %v, want exactly one coalesced reply", sources)
	}
	if runs := s.metrics.KernelRuns("kcentrality"); runs != 1 {
		t.Fatalf("kernel runs = %d, want 1", runs)
	}
}

// TestQoSStaleWithLanes: degraded serving composes with lanes — a cheap
// request rejected by a full cheap queue still answers from the stale
// entry under ?stale=allow.
func TestQoSStaleWithLanes(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{
		MaxConcurrent: 2, CheapReserved: 1, MaxQueued: 1,
		SnapshotEvery: -1, // publish an epoch per ingest batch
	}, testGraph())
	if _, err := s.AddLive("live", 64); err != nil {
		t.Fatal(err)
	}

	// Prime: compute stats at the current epoch (writes the stale entry),
	// then advance the epoch so the next stats request misses the cache.
	if status, _, body := get(t, ts.URL+"/graphs/live/stats"); status != http.StatusOK {
		t.Fatalf("prime: %d %s", status, body)
	}
	resp, err := http.Post(ts.URL+"/graphs/live/ingest?batch_id=stale-test/0", "application/json",
		strings.NewReader(`[{"u":1,"v":2},{"u":2,"v":3}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d", resp.StatusCode)
	}

	// Saturate: hold both slots (one per class) and fill the cheap queue.
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	s.beforeKernel = func(string) { started <- struct{}{}; <-release }
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()
	blocked := make(chan int, 3)
	go func() {
		status, _, _ := get(t, ts.URL+"/graphs/g/kcentrality?k=1&samples=16")
		blocked <- status
	}()
	go func() {
		status, _, _ := get(t, ts.URL+"/graphs/g/bfs?src=0")
		blocked <- status
	}()
	<-started
	<-started
	go func() {
		status, _, _ := get(t, ts.URL+"/graphs/g/components")
		blocked <- status
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if c, _ := s.pool.LaneDepths(); c == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("filler request never queued in the cheap lane")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue full: a plain stats read is rejected...
	if status, _, _ := get(t, ts.URL+"/graphs/live/stats"); status != http.StatusTooManyRequests {
		t.Fatalf("saturated cheap lane returned %d, want 429", status)
	}
	// ...but ?stale=allow serves the pre-ingest result, labeled stale.
	status, hdr, _ := get(t, ts.URL+"/graphs/live/stats?stale=allow")
	if status != http.StatusOK {
		t.Fatalf("stale=allow: %d, want 200", status)
	}
	if hdr.Get("X-Graphct-Stale") == "" {
		t.Fatal("stale response missing X-Graphct-Stale epoch header")
	}

	close(release)
	for i := 0; i < 3; i++ {
		if status := <-blocked; status != http.StatusOK {
			t.Fatalf("blocked request %d finished with %d", i, status)
		}
	}
}

// TestQoSBreakerWithLanes: circuit breakers stay per-(graph,kernel) with
// lanes on — a tripped centrality breaker rejects only centrality, while
// cheap kernels and the other expensive kernel keep serving.
func TestQoSBreakerWithLanes(t *testing.T) {
	armFailpoints(t, "kernel.exec=error(qos-breaker)*2")
	_, ts, _ := newTestServer(t, Config{
		MaxConcurrent: 2, CheapReserved: 1,
		BreakerThreshold: 2, BreakerCooldown: time.Hour,
	}, testGraph())

	for i := 0; i < 2; i++ {
		if status, _, _ := get(t, ts.URL+"/graphs/g/kcentrality?k=1&samples=16"); status != http.StatusInternalServerError {
			t.Fatalf("injected failure %d did not 500", i)
		}
	}
	if status, _, _ := get(t, ts.URL+"/graphs/g/kcentrality?k=1&samples=16"); status != http.StatusServiceUnavailable {
		t.Fatal("tripped breaker did not 503")
	}
	if status, _, _ := get(t, ts.URL+"/graphs/g/stats"); status != http.StatusOK {
		t.Fatal("cheap kernel caught the expensive kernel's breaker")
	}
	if status, _, _ := get(t, ts.URL+"/graphs/g/diameter"); status != http.StatusOK {
		t.Fatal("sibling expensive kernel caught kcentrality's breaker")
	}
}

// TestCheapP99ImprovesWithLanes is the acceptance scenario: identical
// mixed workload — a closed-loop cheap reader plus an open-loop stream of
// slow centrality requests — measured against lanes off and lanes on. The
// reservation must collapse the cheap tail, because cheap reads stop
// waiting for slots held by (deterministically slowed) centrality runs.
func TestCheapP99ImprovesWithLanes(t *testing.T) {
	testutil.CheckGoroutines(t)
	const bcDelay = 120 * time.Millisecond

	measure := func(reserved int) (cheap, bc load.ClassReport) {
		s, ts, _ := newTestServer(t, Config{
			MaxConcurrent: 2, CheapReserved: reserved, MaxQueued: 64,
			CacheBytes: -1, // no result cache: every read exercises admission
		}, testGraph())
		s.beforeKernel = func(kernel string) {
			if kernel == "kcentrality" {
				time.Sleep(bcDelay)
			}
		}
		rng := rand.New(rand.NewSource(7))
		var seq atomic.Int64
		target := load.Target{Base: ts.URL, Graph: "g"}
		reports := load.Run(context.Background(), []load.Class{
			{Name: "cheap", Workers: 4, Do: target.Kernel("bfs", func() string {
				return "src=" + strconv.Itoa(rng.Intn(400))
			})},
			{Name: "bc", QPS: 25, Workers: 64, Do: target.Kernel("kcentrality", func() string {
				return fmt.Sprintf("k=1&samples=%d", 16+seq.Add(1))
			})},
		}, load.Options{Duration: 1200 * time.Millisecond, Warmup: 300 * time.Millisecond})
		return reports[0], reports[1]
	}

	cheapOff, _ := measure(0)
	cheapOn, bcOn := measure(1)

	if cheapOff.Requests == 0 || cheapOn.Requests == 0 {
		t.Fatalf("no cheap requests measured: off %d on %d", cheapOff.Requests, cheapOn.Requests)
	}
	if errs := cheapOn.Errors + bcOn.Errors; errs != 0 {
		t.Fatalf("transport errors under lanes: %d", errs)
	}
	t.Logf("cheap p99: lanes off %.1fms (%d reqs), lanes on %.1fms (%d reqs)",
		cheapOff.P99Ms, cheapOff.Requests, cheapOn.P99Ms, cheapOn.Requests)

	// Lanes off: cheap reads queue behind ~120ms centrality slot-holders,
	// so the tail must show most of one delay. Lanes on: the reserved slot
	// keeps the tail an order of magnitude lower. The thresholds leave
	// slack for scheduler noise while keeping the separation unmistakable.
	if cheapOff.P99Ms < float64(bcDelay/time.Millisecond)/2 {
		t.Fatalf("lanes-off cheap p99 %.1fms shows no contention; the scenario lost its forcing function", cheapOff.P99Ms)
	}
	if cheapOn.P99Ms >= cheapOff.P99Ms/2 {
		t.Fatalf("cheap p99 with lanes on = %.1fms, not clearly better than %.1fms without",
			cheapOn.P99Ms, cheapOff.P99Ms)
	}
}
