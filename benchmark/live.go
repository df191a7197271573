package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"graphct/internal/blob"
	"graphct/internal/gen"
	"graphct/internal/graph"
	"graphct/internal/load"
	"graphct/internal/server"
	"graphct/internal/stream"
	"graphct/internal/wal"
)

// liveEnv is serve_live_cluster's standing state: a router in front of a
// durable leader and one follower tailing it, all in this process.
type liveEnv struct {
	leader, follower, router *host
	stopTail                 func() // cancels the follower's tailer and waits for it
	dir                      string // leader's data directory
	ctl                      *client
	n                        int
	graphURL                 string            // the live graph, through the router
	applied                  [][]stream.Update // every acknowledged batch, in order
	rest                     []graph.Edge      // generated edges set-up did not prefill
	prefillRate              float64           // prefilled updates per second: one unpaced closed-loop writer through the router
}

// stop tears the cluster down in dependency order. Deleting the graph
// first makes the leader close its log segment and drop its files.
func (e *liveEnv) stop() {
	if e.router != nil && e.ctl != nil {
		ctx, cancel := context.WithTimeout(context.Background(), requestDeadline)
		_ = e.ctl.getJSON(ctx, http.MethodDelete, e.graphURL, nil, nil)
		cancel()
	}
	for _, h := range []*host{e.router, e.follower, e.leader} {
		if h != nil {
			h.stop()
		}
	}
	if e.stopTail != nil {
		e.stopTail()
	}
	if e.ctl != nil {
		e.ctl.close()
	}
	if e.dir != "" {
		_ = os.RemoveAll(e.dir)
	}
}

func (b *bench) workerConfig(dataDir string) server.Config {
	return server.Config{
		MaxConcurrent: 2, CheapReserved: 1, MaxQueued: 32, CacheBytes: 64 << 20,
		IngestConcurrent: 2, IngestQueued: 64,
		SnapshotEvery: b.sz.snapshotEvery, Seed: b.seed, DataDir: dataDir,
	}
}

// epochOf reads a worker's current epoch of the live graph from its
// public GET /graphs listing (0 while it does not hold the graph).
func epochOf(ctx context.Context, c *client, worker string) uint64 {
	var infos []struct {
		Name  string `json:"name"`
		Epoch uint64 `json:"epoch"`
	}
	if c.getJSON(ctx, http.MethodGet, worker+"/graphs", nil, &infos) != nil {
		return 0
	}
	for _, in := range infos {
		if in.Name == "live" {
			return in.Epoch
		}
	}
	return 0
}

// awaitFollower returns once the follower serves the leader's epoch.
func (e *liveEnv) awaitFollower(ctx context.Context) error {
	for {
		if want := epochOf(ctx, e.ctl, e.leader.url); want != 0 && epochOf(ctx, e.ctl, e.follower.url) == want {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("follower did not reach the leader's epoch: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// ingestOp posts one GCTU-framed batch under a unique batch id.
func (e *liveEnv) ingestOp(id string, batch []stream.Update) (op, error) {
	buf, ctype, err := load.EncodeBatch(batch, true)
	if err != nil {
		return op{}, err
	}
	return op{kind: "ingest", method: http.MethodPost, url: e.graphURL + "/ingest?batch_id=" + id,
		body: buf.Bytes(), ctype: ctype}, nil
}

func (b *bench) liveSetup(ctx context.Context, root int, req string) (*liveEnv, error) {
	env := &liveEnv{n: 1 << b.sz.serveScale, ctl: newClient("control")}
	var err error
	b.group(root, "setup", req, func(sp int) { err = b.liveSetupSteps(ctx, sp, req, env) })
	if err != nil {
		env.stop()
		return nil, fmt.Errorf("serve_live_cluster set-up: %w", err)
	}
	return env, nil
}

func (b *bench) liveSetupSteps(ctx context.Context, sp int, req string, env *liveEnv) error {
	var edges []graph.Edge
	b.timed(sp, "gen.rmat_edges", req, func() { edges = gen.RMATEdges(gen.PaperRMAT(b.sz.serveScale, b.seed)) })

	var err error
	b.timed(sp, "cluster.start", req, func() {
		if env.dir, err = b.tempDir("live-data-"); err != nil {
			return
		}
		if env.leader, err = b.startHost(server.New(server.NewRegistry(), b.workerConfig(env.dir))); err != nil {
			return
		}
		fsrv := server.New(server.NewRegistry(), b.workerConfig(""))
		if env.follower, err = b.startHost(fsrv); err != nil {
			return
		}
		tailCtx, cancel := context.WithCancel(context.Background())
		var tail sync.WaitGroup
		tail.Add(1)
		go func() {
			defer tail.Done()
			server.NewFollower(fsrv, env.leader.url, b.sz.followEvery).Run(tailCtx)
		}()
		env.stopTail = func() { cancel(); tail.Wait() }
		env.router, err = b.startHost(server.NewRouter([]server.Shard{{Members: []string{env.leader.url, env.follower.url}}}))
	})
	if err != nil {
		return err
	}
	env.graphURL = env.router.url + "/graphs/live"

	create := fmt.Sprintf(`{"name":"live","format":"live","vertices":%d}`, env.n)
	if err := env.ctl.getJSON(ctx, http.MethodPost, env.router.url+"/graphs", []byte(create), nil); err != nil {
		return err
	}
	half := len(edges) / 2
	env.rest = edges[half:]
	prefill := b.tr.open(sp, "prefill", req)
	start := time.Now()
	for lo := 0; lo < half; lo += b.sz.batchSize {
		batch := make([]stream.Update, 0, b.sz.batchSize)
		for i, e := range edges[lo:min(lo+b.sz.batchSize, half)] {
			batch = append(batch, stream.Update{U: e.U, V: e.V, Time: int64(lo + i)})
		}
		o, err := env.ingestOp(fmt.Sprintf("prefill-%d-%d", b.seed, lo), batch)
		if err != nil {
			return err
		}
		var r reply
		b.timed(prefill, "load.ingest", req, func() { r = env.ctl.do(ctx, o) })
		if !r.ok() {
			return fmt.Errorf("prefill batch at %d: status %d, %v", lo, r.status, r.err)
		}
		env.applied = append(env.applied, batch)
	}
	env.prefillRate = float64(half) / time.Since(start).Seconds()
	b.tr.close(prefill)

	if err := env.ctl.getJSON(ctx, http.MethodPost, env.graphURL+"/snapshot", nil, nil); err != nil {
		return err
	}
	b.timed(sp, "replica.catchup", req, func() { err = env.awaitFollower(ctx) })
	return err
}

// ackBlock sizes serve_live_cluster's solution_s: the time the writer
// spends waiting for this many batch acknowledgments.
const ackBlock = 64

// churn yields the writer's batches: first the generated edges set-up
// left out, then seeded churn — nine inserts of random pairs to one
// delete of an edge known to have been offered.
type churn struct {
	rng   *rand.Rand
	n     int
	size  int
	rest  []graph.Edge
	known []graph.Edge
	clock int64
}

func (c *churn) next() []stream.Update {
	batch := make([]stream.Update, c.size)
	for i := range batch {
		c.clock++
		var e graph.Edge
		del := false
		switch {
		case len(c.rest) > 0:
			e, c.rest = c.rest[0], c.rest[1:]
			c.known = append(c.known, e)
		case c.rng.Intn(10) == 0:
			e, del = c.known[c.rng.Intn(len(c.known))], true
		default:
			e = graph.Edge{U: int32(c.rng.Intn(c.n)), V: int32(c.rng.Intn(c.n))}
			c.known = append(c.known, e)
		}
		batch[i] = stream.Update{U: e.U, V: e.V, Time: c.clock, Del: del}
	}
	return batch
}

func runLive(ctx context.Context, b *bench) (map[string]float64, error) {
	root := b.tr.open(0, "workload."+b.workload, "")
	defer b.tr.close(root)

	var env *liveEnv
	var prefillRates []float64
	for i, start := 0, time.Now(); b.moreSetup(i, start); i++ {
		if env != nil {
			env.stop()
		}
		var err error
		if env, err = b.liveSetup(ctx, root, fmt.Sprintf("setup-%d", i)); err != nil {
			return nil, err
		}
		prefillRates = append(prefillRates, env.prefillRate)
	}
	defer env.stop()
	m := map[string]float64{
		"setup_s":                     b.med("setup"),
		"server.ingest_updates_per_s": median(prefillRates),
		"gen.rmat_edges_s":            b.med("gen.rmat_edges"),
	}
	workers := []string{env.leader.url, env.follower.url}
	before, err := readCounters(ctx, env.ctl, workers...)
	if err != nil {
		return nil, err
	}
	routedBefore, err := readCounters(ctx, env.ctl, env.router.url)
	if err != nil {
		return nil, err
	}

	from := time.Now().Add(b.sz.warmup)
	stop := from.Add(b.window)
	win := b.tr.open(root, "window", "")
	stopSlices := b.tr.traceInSlices()
	var wg sync.WaitGroup

	// The writer: one replaying client that waits for each ack.
	writer := newClient("writer")
	defer writer.close()
	var wst *loopStats
	var writerDone time.Time
	wg.Add(1)
	go func() {
		defer wg.Done()
		src := &churn{rng: rand.New(rand.NewSource(b.seed + 1)), n: env.n, size: b.sz.batchSize, rest: env.rest}
		for _, batch := range env.applied {
			for _, up := range batch {
				src.known = append(src.known, graph.Edge{U: up.U, V: up.V})
			}
		}
		due := time.Now()
		wst = b.closedLoop(ctx, win, writer, from, stop, func(i int) op {
			batch := src.next()
			o, err := env.ingestOp(fmt.Sprintf("w-%d-%d", b.seed, i), batch)
			if err != nil { // only a negative vertex id fails to encode; churn makes none
				panic(err)
			}
			// The stream arrives at a fixed rate below what the leader can
			// absorb, and the client still waits for each ack: ingest then
			// shares the cores with reads without saturating them, which
			// is the regime where latencies repeat from run to run.
			o.due = due
			due = due.Add(b.sz.batchEvery)
			o.after = func(r reply) bool {
				if r.ok() {
					env.applied = append(env.applied, batch)
				}
				return true
			}
			return o
		})
		writerDone = time.Now()
	}()

	// The reader: one analyst client that demands at least the epoch it
	// last saw, so a lagging follower answers 412 and the router retries.
	reader := newClient("reader")
	defer reader.close()
	var rst *loopStats
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(b.seed + 2))
		cheap := []string{"/stats", "/degrees", "/components"}
		var seen uint64
		sawEpoch := func(r reply) bool {
			good := r.epoch >= seen // read-your-epoch must hold
			seen = max(seen, r.epoch)
			return good || !r.ok()
		}
		rst = b.closedLoop(ctx, win, reader, from, stop, func(i int) op {
			var o op
			switch {
			case i%b.sz.bcEvery == b.sz.bcEvery-1:
				// top differs from request to request, so the kernel runs
				// even when the epoch has not moved since the last one.
				o = get(fmt.Sprintf("%s/kcentrality?k=0&samples=%d&top=%d", env.graphURL, b.sz.bcReqSamples, 10+i/b.sz.bcEvery%200))
				o.kind = "bc"
			case rng.Float64() < cacheableShare:
				o = get(env.graphURL + cheap[rng.Intn(len(cheap))])
			default:
				o = get(fmt.Sprintf("%s/bfs?src=%d&depth=%d", env.graphURL, rng.Intn(env.n), 1000+i))
				o.bfs = true
			}
			o.minEpoch, o.after = seen, sawEpoch
			return o
		})
	}()

	lag := b.watchLag(ctx, env, stop)
	defer lag() // on an early return too, the poller is stopped and waited for
	wg.Wait()
	stopSlices()
	b.tr.close(win)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", b.workload, err)
	}

	// Flush, and time how long the follower takes to hold the final epoch.
	var final struct {
		Edges int64 `json:"edges"`
	}
	if err := env.ctl.getJSON(ctx, http.MethodPost, env.graphURL+"/snapshot", nil, &final); err != nil {
		return nil, err
	}
	if err := env.awaitFollower(ctx); err != nil {
		return nil, err
	}
	m["replica.catchup_s"] = time.Since(writerDone).Seconds()
	m["replica.lag_epochs_p50"] = median(lag())

	after, err := readCounters(ctx, env.ctl, workers...)
	if err != nil {
		return nil, err
	}
	routedAfter, err := readCounters(ctx, env.ctl, env.router.url)
	if err != nil {
		return nil, err
	}
	st := merge(wst, rst)
	delta := func(k string) float64 { return after[k] - before[k] }
	b.serveMetrics(m, st, delta)
	m["server.ingest_batches"] = delta("ingest_batches")
	m["server.ingest_deduped"] = delta("ingest_deduped")
	m["server.snapshots"] = delta("snapshots")
	m["server.wal_appends"] = delta("wal_appends")
	acks := st.lat["ingest"]
	m["solution_s"] = ackBlock * ratio(sum(acks), float64(len(acks))) / 1e3
	// The writer's rate with the idle wait of the pacing taken out: what
	// one closed-loop client gets acknowledged per second it spends waiting.
	m["build_edges_per_s"] = ratio(float64(len(acks)*b.sz.batchSize), sum(acks)/1e3)
	m["server.ingest_p50_ms"] = median(acks)
	m["server.bc_req_p50_ms"] = median(st.lat["bc"])
	m["router.reads"] = routedAfter["routed_reads"] - routedBefore["routed_reads"]
	m["router.writes"] = routedAfter["routed_writes"] - routedBefore["routed_writes"]
	m["router.failover_share"] = ratio(routedAfter["failovers"]-routedBefore["failovers"], m["router.reads"])

	// Both members must now serve the same bytes at the same epoch, and
	// the leader must hold exactly what a clean replay of the acknowledged
	// batches builds.
	lead := env.ctl.do(ctx, get(env.leader.url+"/graphs/live/stats"))
	foll := env.ctl.do(ctx, get(env.follower.url+"/graphs/live/stats"))
	b.check(lead.ok() && foll.ok() && lead.epoch == foll.epoch && bytes.Equal(lead.body, foll.body),
		"follower stats differ from the leader's: epoch %d %s vs epoch %d %s", foll.epoch, foll.body, lead.epoch, lead.body)
	probes := b.tr.open(root, "probes", "probe")
	defer b.tr.close(probes)
	replay := b.replay(probes, env, m)
	b.check(replay.NumEdges() == final.Edges, "leader holds %d edges, a clean replay of the acknowledged batches %d", final.Edges, replay.NumEdges())
	snapshot := replay.Snapshot()
	m["graph.csr_bytes"] = float64(snapshot.MemoryFootprint())
	// The graph grows through the window; the paced stream makes it grow the
	// same way on every commit, so the final arc count is a fixed yardstick.
	m["bc_teps"] = ratio(float64(b.sz.bcReqSamples)*float64(snapshot.NumArcs()), m["server.bc_req_p50_ms"]/1e3)
	if b.tr != nil {
		if err := b.liveProbes(ctx, probes, env, snapshot, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// watchLag polls both members' epochs at 10 Hz until stop. The function
// it returns ends the polling if it is still going, waits for the poller,
// and delivers the observed leader-minus-follower gaps.
func (b *bench) watchLag(ctx context.Context, env *liveEnv, stop time.Time) func() []float64 {
	ctx, cancel := context.WithDeadline(ctx, stop)
	var gaps []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		poller := newClient("lag-poller")
		defer poller.close()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for ctx.Err() == nil {
			l, f := epochOf(ctx, poller, env.leader.url), epochOf(ctx, poller, env.follower.url)
			if l >= f && f > 0 {
				gaps = append(gaps, float64(l-f))
			}
			select {
			case <-tick.C:
			case <-ctx.Done():
			}
		}
	}()
	return func() []float64 {
		cancel()
		wg.Wait()
		return gaps
	}
}

// replay applies every acknowledged batch to a fresh stream: the
// correctness reference, and — timed — the stream layer's own apply rate.
func (b *bench) replay(parent int, env *liveEnv, m map[string]float64) *stream.Stream {
	st := stream.New(env.n)
	updates := 0
	var applyS float64
	for i, batch := range env.applied {
		var err error
		applyS += b.timed(parent, "stream.apply", "probe", func() { _, err = st.ApplyBatch(batch) }).Seconds()
		b.check(err == nil, "replay batch %d: %v", i, err)
		updates += len(batch)
		if b.tr != nil && i%8 == 7 {
			b.timed(parent, "stream.snapshot", "probe", func() { st.Snapshot() })
		}
	}
	m["stream.apply_updates_per_s"] = ratio(float64(updates), applyS)
	return st
}

// liveProbes calls the ingest path's layers directly with the batches the
// writer sent, and measures the router hop with paired identical requests.
func (b *bench) liveProbes(ctx context.Context, parent int, env *liveEnv, snapshot *graph.Graph, m map[string]float64) error {
	batches := env.applied[max(0, len(env.applied)-b.sz.probeCount):]

	dir, err := b.tempDir("probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Create(filepath.Join(dir, "probe.wal"), 1)
	if err != nil {
		return err
	}
	defer log.Close()
	for i, batch := range batches {
		var buf bytes.Buffer
		if err := stream.EncodeUpdates(&buf, batch); err != nil {
			return err
		}
		b.timed(parent, "stream.decode", "probe", func() { _, err = stream.DecodeUpdates(&buf, len(batch)) })
		if err != nil {
			return err
		}
		b.timed(parent, "wal.append", "probe", func() { err = log.Append(fmt.Sprintf("probe-%d", i), batch) })
		if err != nil {
			return err
		}
	}
	store := blob.NewFS(filepath.Join(dir, "blobs"))
	for i := 0; i < min(b.sz.probeCount, 20); i++ {
		var data []byte
		b.timed(parent, "blob.snapshot_encode", "probe", func() {
			data, err = blob.EncodeSnapshot(blob.Snapshot{Epoch: uint64(i + 1), Graph: snapshot})
		})
		if err != nil {
			return err
		}
		b.timed(parent, "blob.put", "probe", func() { err = store.Put(fmt.Sprintf("live/epoch-%d", i), data) })
		if err != nil {
			return err
		}
	}
	m["stream.snapshot_p50_ms"] = b.med("stream.snapshot") * 1e3
	m["stream.decode_s"] = b.med("stream.decode")
	m["wal.append_p50_ms"] = b.med("wal.append") * 1e3
	m["blob.snapshot_encode_p50_ms"] = b.med("blob.snapshot_encode") * 1e3
	m["blob.put_p50_ms"] = b.med("blob.put") * 1e3

	// The same cached read, through the router and straight at the member
	// that serves it: the difference is the hop.
	var routed, direct []float64
	for i := 0; i < b.sz.probeCount; i++ {
		for _, p := range []struct {
			url string
			out *[]float64
		}{{env.graphURL + "/degrees", &routed}, {env.follower.url + "/graphs/live/degrees", &direct}} {
			var r reply
			d := b.timed(parent, "router.probe", "probe", func() { r = env.ctl.do(ctx, get(p.url)) })
			if !r.ok() {
				return fmt.Errorf("hop probe %s: status %d, %v", p.url, r.status, r.err)
			}
			*p.out = append(*p.out, d.Seconds()*1e3)
		}
	}
	m["router.hop_p50_ms"] = median(routed) - median(direct)
	return nil
}
