package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"graphct/internal/api"
)

// cacheableShare is the share of a serving client's reads that repeat an
// earlier request and so can be answered by the result cache; the rest are
// BFS requests no cache entry matches.
const cacheableShare = 0.8

// requestDeadline is the client deadline on every request; a request that
// misses it is a failed operation.
const requestDeadline = 10 * time.Second

// host is one in-process HTTP server on a loopback listener. The workload
// that starts it stops it: stop returns only after Serve has returned, so
// no listener or connection goroutine outlives the run.
type host struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func (b *bench) startHost(h http.Handler) (*host, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &host{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	b.mu.Lock()
	b.hosted = append(b.hosted, ln.Addr().String())
	b.mu.Unlock()
	go func() {
		defer close(hs.done)
		_ = hs.srv.Serve(ln) // returns http.ErrServerClosed once stop runs
	}()
	return hs, nil
}

func (h *host) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := h.srv.Shutdown(ctx); err != nil {
		_ = h.srv.Close() // a connection that would not drain is cut
	}
	<-h.done
}

// client is one load-generating caller with one keep-alive connection.
type client struct {
	name string
	hc   *http.Client
}

func newClient(name string) *client {
	return &client{name: name, hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// op is one request of a traffic mix. after, when set, sees the reply
// (warm-up replies too) and reports whether its content was right.
type op struct {
	kind     string    // "read", "bc" or "ingest"
	bfs      bool      // a BFS read: its miss latency is what the direct BFS probe is compared with
	due      time.Time // a paced client sends no earlier than this; zero means at once
	method   string
	url      string
	body     []byte
	ctype    string
	minEpoch uint64
	after    func(reply) bool
}

type reply struct {
	status int
	source string // X-Graphct-Source: computed, coalesced, cache or stale
	epoch  uint64
	body   []byte
	err    error
}

func (r reply) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

func (c *client) do(ctx context.Context, o op) reply {
	ctx, cancel := context.WithTimeout(ctx, requestDeadline)
	defer cancel()
	var rd io.Reader
	if o.body != nil {
		rd = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, o.method, o.url, rd)
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set(api.HeaderClient, c.name)
	if o.ctype != "" {
		req.Header.Set("Content-Type", o.ctype)
	}
	if o.minEpoch > 0 {
		req.Header.Set(api.HeaderMinEpoch, strconv.FormatUint(o.minEpoch, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	epoch, _ := strconv.ParseUint(resp.Header.Get(api.HeaderEpoch), 10, 64)
	return reply{status: resp.StatusCode, source: resp.Header.Get(api.HeaderSource), epoch: epoch, body: body, err: err}
}

func get(url string) op { return op{kind: "read", method: http.MethodGet, url: url} }

// getJSON fetches url outside any measured loop (set-up, metrics, checks).
func (c *client) getJSON(ctx context.Context, method, url string, body []byte, v any) error {
	r := c.do(ctx, op{method: method, url: url, body: body, ctype: "application/json"})
	if !r.ok() {
		return fmt.Errorf("%s %s: status %d, %v: %s", method, url, r.status, r.err, api.DecodeError(r.body))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(r.body, v)
}

// loopStats is what one closed-loop client observed inside the measured
// window. Latencies are milliseconds.
type loopStats struct {
	sent, ok int
	status   map[int]int
	lat      map[string][]float64 // by op kind
	hit      []float64            // reads the result cache answered (X-Graphct-Source: cache)
	miss     []float64            // reads a kernel ran for
	missBFS  []float64            // the BFS reads among them
	bytes    []float64            // read response sizes
	self     []float64            // harness time per request outside the HTTP call and the wait for a paced op to fall due
	modeOK   [2]int               // ok requests finished with the tracer off [0] and on [1]...
	modeBusy [2]float64           // ...and the seconds the client spent on them
}

// closedLoop issues next(i) back to back until stop: the next request
// leaves only after the previous reply arrived, as an analyst's client or
// a replaying ingest client does. Replies before from are warm-up and are
// not recorded. A request in flight at stop is allowed to finish, so no
// request is torn down and counted as failed. The idle wait for a paced op
// to fall due is neither the generator's own work nor time the client was
// busy, and is counted as neither.
func (b *bench) closedLoop(ctx context.Context, parent int, c *client, from, stop time.Time, next func(i int) op) *loopStats {
	st := &loopStats{status: make(map[int]int), lat: make(map[string][]float64)}
	for i := 0; ctx.Err() == nil; i++ {
		t0 := time.Now()
		if !t0.Before(stop) {
			break
		}
		o := next(i)
		prep := time.Since(t0)
		time.Sleep(time.Until(o.due))
		t1 := time.Now()
		r := c.do(ctx, o)
		t2 := time.Now()
		good := r.ok()
		if o.after != nil && !o.after(r) {
			good = false
		}
		if t0.Before(from) {
			continue
		}
		ms := float64(t2.Sub(t1)) / 1e6
		st.sent++
		st.status[r.status]++
		if good {
			st.ok++
			st.lat[o.kind] = append(st.lat[o.kind], ms)
		} else {
			b.mu.Lock()
			b.fail(fmt.Sprintf("%s %s: status %d, %v", o.method, o.url, r.status, r.err))
			b.mu.Unlock()
		}
		if good && o.kind == "read" {
			st.bytes = append(st.bytes, float64(len(r.body)))
			if r.source == "cache" {
				st.hit = append(st.hit, ms)
			} else {
				st.miss = append(st.miss, ms)
				if o.bfs {
					st.missBFS = append(st.missBFS, ms)
				}
			}
		}
		mode := 0
		if b.tr.enabled() {
			mode = 1
			b.tr.add(parent, "load."+o.kind, fmt.Sprintf("%s-%d", c.name, i),
				fmt.Sprintf("%s status=%d source=%s bytes=%d", o.url, r.status, r.source, len(r.body)), t1, t2)
		}
		if good {
			st.modeOK[mode]++
		}
		own := prep + time.Since(t2)
		st.modeBusy[mode] += (own + t2.Sub(t1)).Seconds()
		st.self = append(st.self, float64(own)/1e6)
	}
	return st
}

// merge folds the per-client stats of one window together.
func merge(all ...*loopStats) *loopStats {
	out := &loopStats{status: make(map[int]int), lat: make(map[string][]float64)}
	for _, st := range all {
		out.sent += st.sent
		out.ok += st.ok
		for k, v := range st.status {
			out.status[k] += v
		}
		for k, v := range st.lat {
			out.lat[k] = append(out.lat[k], v...)
		}
		out.hit = append(out.hit, st.hit...)
		out.miss = append(out.miss, st.miss...)
		out.missBFS = append(out.missBFS, st.missBFS...)
		out.bytes = append(out.bytes, st.bytes...)
		out.self = append(out.self, st.self...)
		for mode := range st.modeOK {
			out.modeOK[mode] += st.modeOK[mode]
			out.modeBusy[mode] += st.modeBusy[mode]
		}
	}
	return out
}

// traceInSlices switches the tracer off and on every 100 ms until the
// returned stop function is called, which leaves it on. Both modes then
// sample every phase of a window whose load drifts, and the difference in
// requests per busy second between them is the tracing overhead.
func (t *tracer) traceInSlices() (stop func()) {
	if t == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for on := false; ; on = !on {
			t.on.Store(on)
			select {
			case <-done:
				t.on.Store(true)
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// readCounters sums the numeric fields of the public GET /metrics JSON
// over the given workers (or a router); kernel_runs, a per-kernel map, is
// summed over its kernels. Per-layer counts are differences of two reads.
func readCounters(ctx context.Context, c *client, urls ...string) (map[string]float64, error) {
	total := make(map[string]float64)
	for _, u := range urls {
		var raw map[string]any
		if err := c.getJSON(ctx, http.MethodGet, u+"/metrics", nil, &raw); err != nil {
			return nil, err
		}
		for k, v := range raw {
			switch v := v.(type) {
			case float64:
				total[k] += v
			case map[string]any:
				if k != "kernel_runs" {
					continue
				}
				for _, n := range v {
					if f, ok := n.(float64); ok {
						total[k] += f
					}
				}
			}
		}
	}
	return total, nil
}

// serveMetrics derives what both serving workloads report from the merged
// client observations of the window and the workers' counter deltas.
func (b *bench) serveMetrics(m map[string]float64, st *loopStats, delta func(string) float64) {
	b.mu.Lock()
	b.attempted += st.sent
	b.mu.Unlock()
	reads := st.lat["read"]
	m["read_rps"] = float64(len(reads)) / b.window.Seconds()
	m["read_p50_ms"] = median(reads)
	m["load.read_p99_ms"] = tail(reads)
	m["load.sent"] = float64(st.sent)
	m["load.ok"] = float64(st.ok)
	m["load.failed"] = float64(st.sent - st.ok)
	m["load.status_429"] = float64(st.status[http.StatusTooManyRequests])
	m["load.status_412"] = float64(st.status[http.StatusPreconditionFailed])
	m["load.client_self_p50_ms"] = median(st.self)

	m["server.cache_hit_share"] = ratio(delta("cache_hits"), delta("cache_hits")+delta("cache_misses"))
	m["server.coalesced"] = delta("coalesced")
	m["server.kernel_runs"] = delta("kernel_runs")
	m["server.rejected_share"] = ratio(delta("rejected")+delta("rate_limited"), delta("requests")+delta("rate_limited"))
	m["server.hit_p50_ms"] = median(st.hit)
	m["server.miss_p50_ms"] = median(st.miss)
	m["server.resp_bytes_p50"] = median(st.bytes)

	m["trace.overhead_share"] = 0
	if st.modeBusy[0] > 0 && st.modeBusy[1] > 0 {
		m["trace.overhead_share"] = 1 - ratio(float64(st.modeOK[1])/st.modeBusy[1], float64(st.modeOK[0])/st.modeBusy[0])
	}
}
