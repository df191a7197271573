package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"graphct/internal/gen"
	"graphct/internal/load"
	"graphct/internal/stream"
)

// TestLanesProtectCheapReads is the QoS lanes' end-to-end SLO gate against
// the real binary. The same mixed blend — open-loop stats, bfs and
// components reads, a closed-loop cheap reader, paced ingest, and a stream
// of betweenness requests that always miss the result cache — runs against
// a daemon with two kernel slots, first with lanes off and then with one
// slot reserved for cheap kernels. Lanes off, the betweenness requests
// hold both slots and cheap reads queue behind them past the bound; lanes
// on, every cheap class stays under the bound and under half its lanes-off
// tail. Each betweenness request holds its slot for a fixed delay (the
// kernel.exec.expensive failpoint) before its kernel runs, so the lanes-off
// queueing does not shrink when the kernel gets faster.
func TestLanesProtectCheapReads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and drives real daemons; skipped in -short")
	}
	const boundMs = 1500
	bin := buildDaemon(t)
	// The daemons inherit this: a betweenness request then costs the same
	// on a runner with more cores, so the lanes-off forcing function holds.
	t.Setenv("GOMAXPROCS", "2")
	t.Setenv("GRAPHCT_FAILPOINTS", "kernel.exec.expensive=delay(2s)")
	off := runLanesBlend(t, bin, 0)
	on := runLanesBlend(t, bin, 1)

	for i := range off {
		o, n := off[i], on[i]
		t.Logf("%-12s off: %5d reqs  p50 %7.1fms  p99 %7.1fms  429 %4.1f%% | on: %5d reqs  p50 %7.1fms  p99 %7.1fms  429 %4.1f%%",
			o.Name, o.Requests, o.P50Ms, o.P99Ms, 100*o.Rate("429"), n.Requests, n.P50Ms, n.P99Ms, 100*n.Rate("429"))
		if o.Errors+n.Errors != 0 {
			t.Errorf("%s: %d transport errors lanes off, %d lanes on", o.Name, o.Errors, n.Errors)
		}
		if o.Requests == 0 || n.Requests == 0 {
			t.Errorf("%s completed no requests: %d lanes off, %d lanes on", o.Name, o.Requests, n.Requests)
		}
		if !cheapClass[o.Name] {
			continue
		}
		if o.P99Ms <= boundMs {
			t.Errorf("%s: lanes-off p99 %.1fms is under the %dms bound; the blend lost its forcing function", o.Name, o.P99Ms, boundMs)
		}
		if n.P99Ms > boundMs || n.P99Ms >= o.P99Ms/2 {
			t.Errorf("%s: lanes-on p99 %.1fms, want under %dms and under half of lanes-off %.1fms", o.Name, n.P99Ms, boundMs, o.P99Ms)
		}
	}
}

// cheapClass names the blend's classes the SLO covers.
var cheapClass = map[string]bool{"stats": true, "bfs": true, "components": true, "closed_cheap": true}

// runLanesBlend starts graphctd with two kernel slots and reserved of them
// kept for cheap kernels, prefills a scale-11 live graph, drives the blend
// for a 2 s warm-up and a 20 s measured window, and stops the daemon. The
// ingest stream publishes an epoch every 1024 mutations, about every 1.6 s,
// so the cached cheap reads (stats, components, the closed-loop reader)
// miss once per epoch and pass admission too.
func runLanesBlend(t *testing.T, bin string, reserved int) []load.ClassReport {
	t.Helper()
	const (
		scale = 11
		seed  = 1
	)
	addr := freeAddr(t)
	base := "http://" + addr
	daemon := startDaemon(t, bin, []string{
		"-addr", addr,
		"-max-concurrent", "2", "-max-queued", "32",
		"-cheap-reserved", strconv.Itoa(reserved),
		"-snapshot-every", "1024",
	})
	defer func() {
		_ = daemon.Process.Kill()
		_ = daemon.Wait()
	}()
	waitReady(t, base)
	prefillLive(t, base, scale, seed)

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	defer client.CloseIdleConnections()
	target := func(class string) load.Target {
		return load.Target{Base: base, Graph: "live", Client: "lanes-" + class, HTTP: client}
	}
	n := 1 << scale
	rng := rand.New(rand.NewSource(seed + 101))
	closed := target("closed")
	closedOps := []load.Op{closed.Kernel("stats", nil), closed.Kernel("degrees", nil), closed.Kernel("clustering", nil)}
	var closedSeq, bcSeq atomic.Int64
	classes := []load.Class{
		{Name: "stats", QPS: 50, Do: target("stats").Kernel("stats", nil)},
		{Name: "bfs", QPS: 5, Do: target("bfs").Kernel("bfs", func() string {
			return "src=" + strconv.Itoa(rng.Intn(n)) + "&depth=4"
		})},
		{Name: "components", QPS: 5, Do: target("components").Kernel("components", nil)},
		{Name: "closed_cheap", Workers: 1, Do: func(ctx context.Context) (int, error) {
			return closedOps[(closedSeq.Add(1)-1)%int64(len(closedOps))](ctx)
		}},
		// Three closed-loop betweenness clients keep both slots held and
		// one request queued. A sample count past the vertex count makes
		// every vertex a source, so each request is exact k=1 betweenness,
		// and a new count per request is a new cache key.
		{Name: "bc", Workers: 3, Do: target("bc").Kernel("kcentrality", func() string {
			return fmt.Sprintf("k=1&samples=%d", n+int(bcSeq.Add(1)))
		})},
		{Name: "ingest", QPS: 5, Do: target("ingest").Ingest(fmt.Sprintf("lanes-%d", reserved), n, 128, seed)},
	}
	return load.Run(context.Background(), classes, load.Options{Duration: 20 * time.Second, Warmup: 2 * time.Second})
}

// prefillLive creates the live graph "live" and fills it with the
// seed-determined R-MAT edge list of the given scale, then publishes an
// epoch so kernels read the filled graph.
func prefillLive(t *testing.T, base string, scale int, seed int64) {
	t.Helper()
	n := 1 << scale
	resp, err := http.Post(base+"/graphs", "application/json",
		strings.NewReader(fmt.Sprintf(`{"name":"live","format":"live","vertices":%d}`, n)))
	if err != nil {
		t.Fatal(err)
	}
	if err := load.Drain(resp, http.StatusCreated); err != nil {
		t.Fatalf("create live graph: %v", err)
	}
	rng := rand.New(rand.NewSource(seed))
	edges := gen.RMATEdges(gen.PaperRMAT(scale, seed))
	const batch = 8192
	for lo := 0; lo < len(edges); lo += batch {
		hi := min(lo+batch, len(edges))
		ups := make([]stream.Update, 0, hi-lo)
		for i, e := range edges[lo:hi] {
			if e.U != e.V {
				ups = append(ups, stream.Update{U: e.U, V: e.V, Time: int64(lo + i)})
			}
		}
		if _, err := load.PostBatch(base, "live", fmt.Sprintf("prefill/%d", lo), ups, true, rng); err != nil {
			t.Fatalf("prefill: %v", err)
		}
	}
	resp, err = http.Post(base+"/graphs/live/snapshot", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := load.Drain(resp, http.StatusOK); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
}
