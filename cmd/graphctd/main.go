// Command graphctd is GraphCT's long-running analysis daemon: it holds a
// registry of named in-memory CSR graphs and serves the toolkit's kernels
// as HTTP JSON endpoints, amortizing one expensive ingest across many
// clients and many kernel invocations. The serving path caches results,
// coalesces identical concurrent requests and applies admission control;
// see internal/server.
//
// Usage:
//
//	graphctd [-addr :8423] [-graph NAME=FORMAT:PATH]... [flags]
//
// Endpoints:
//
//	GET    /healthz
//	GET    /readyz
//	GET    /metrics
//	GET    /debug/failpoints           (requires -debug)
//	POST   /debug/failpoints           {"arm":"spec"} | {"disarm":"name"} |
//	                                   {"disarm_all":true} | {"seed":N}
//	GET    /debug/pprof/...            runtime profiles, net/http/pprof
//	                                   (requires -debug)
//	GET    /graphs
//	POST   /graphs                     {"name","format","path","directed"}
//	                                   or {"name","format":"live","vertices":N}
//	DELETE /graphs/{name}
//	POST   /graphs/{name}/extract      {"component":N,"as":"newname"}
//	POST   /graphs/{name}/ingest       JSON [{"u","v","time","del"}] or the
//	                                   binary framing (see internal/stream)
//	POST   /graphs/{name}/snapshot     force-publish a live graph's epoch
//	GET    /graphs/{name}/epochs       current + retained durable epochs
//	GET    /graphs/{name}/snapshot     newest durable snapshot, raw GCTS
//	                                   (the replication bootstrap feed)
//	GET    /graphs/{name}/wal?from=E   log segment based at epoch E, raw
//	                                   (the replication tail feed)
//	GET    /graphs/{name}/components
//	GET    /graphs/{name}/stats
//	GET    /graphs/{name}/degrees
//	GET    /graphs/{name}/clustering
//	GET    /graphs/{name}/diameter
//	GET    /graphs/{name}/kcores?k=K
//	GET    /graphs/{name}/kcentrality?k=K&samples=S&top=N
//	GET    /graphs/{name}/bfs?src=V&depth=D
//	GET    /graphs/{name}/sssp?src=V
//
// Kernel endpoints accept ?timeout_ms=N for a per-request deadline. Live
// graphs (created with format "live", or preloaded via
// -graph NAME=live:VERTICES) accept batched edge updates on their ingest
// endpoint; every -snapshot-every effective mutations the daemon publishes
// a new immutable epoch that subsequent kernel requests resolve, while
// requests already in flight keep their old epoch's view.
//
// Durability: with -data-dir set, every published epoch of a live graph is
// committed to a blob store under the directory and every applied ingest
// batch is appended to a write-ahead log between epochs; a restarted
// daemon warm-restarts each live graph from its newest snapshot plus the
// log tail (acked batches survive kill -9), reporting "recovering" on
// /readyz meanwhile. -retain-epochs bounds the snapshot history, which
// kernel endpoints can address with ?epoch=E for point-in-time reads.
//
// QoS: -cheap-reserved N enables priority lanes in the kernel admission
// pool — cheap kernels (stats, degrees, components, clustering, kcores,
// bfs, sssp) keep N reserved slots that expensive kernels (kcentrality,
// diameter) can never occupy, and each class queues separately, so cheap
// reads never wait behind a centrality run; every kernel response names
// its lane in X-Graphct-Class. -client-rate R [-client-burst B] adds
// per-client token-bucket rate limiting keyed on the X-Graphct-Client
// request header (429 + Retry-After when a bucket drains), and
// -cache-max-entry bounds cost-aware cache admission so one giant result
// cannot evict hundreds of cheap entries.
//
// Failure handling: kernel panics are isolated per request (500 +
// kernel_panics metric, the daemon keeps serving); a (graph, kernel)
// pair that fails -breaker-threshold times in a row trips a circuit
// breaker (503 until a half-open probe succeeds); kernel requests may
// opt into degraded serving with ?stale=allow, which answers a 429/503
// rejection from the last computed result with X-Graphct-Stale naming
// its epoch; ingest requests may carry ?batch_id=ID, and retried IDs are
// answered from an idempotency window instead of double-applying.
// GRAPHCT_FAILPOINTS (and, with -debug, POST /debug/failpoints) arms
// fault injection; see internal/failpoint. On SIGINT/SIGTERM the daemon
// stops accepting connections and drains in-flight kernels before
// exiting.
//
// Topology: one binary serves three roles. The default is a standalone
// worker. -follow URL turns a worker into a follower that bootstraps
// every live graph from the leader's newest snapshot and tails its
// write-ahead log, serving reads at the leader's own epoch numbers.
// -mode router -workers "LEADER|REPLICA,...," runs a coordinator that
// owns no graphs: a consistent-hash ring over graph names sends writes to
// the owning shard's leader and fans kernel reads across the shard's
// members, honoring X-Graphct-Min-Epoch read-your-epoch floors and
// answering 503 with X-Graphct-Degraded when a shard is down. See
// DESIGN.md §12.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"graphct/internal/failpoint"
	"graphct/internal/graph"
	"graphct/internal/server"
)

type graphFlags []string

func (g *graphFlags) String() string     { return strings.Join(*g, ", ") }
func (g *graphFlags) Set(s string) error { *g = append(*g, s); return nil }

func main() {
	addr := flag.String("addr", ":8423", "listen address")
	mode := flag.String("mode", "server", "role: server (owns graphs) or router (coordinates -workers shards)")
	workers := flag.String("workers", "", "router mode topology: comma-separated shards, each LEADER_URL|REPLICA_URL|... (first member is the leader)")
	follow := flag.String("follow", "", "replicate every live graph from this leader daemon's URL (worker mode)")
	followInterval := flag.Duration("follow-interval", 200*time.Millisecond, "poll interval of the -follow replication tailer")
	maxConcurrent := flag.Int("max-concurrent", 2, "kernels executing at once")
	maxQueued := flag.Int("max-queued", 16, "kernel requests waiting for a slot before 429 (per lane with -cheap-reserved)")
	cheapReserved := flag.Int("cheap-reserved", 0, "QoS lanes: kernel slots reserved for cheap-class requests so stats never queue behind centrality (0 disables lanes)")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "result cache bound in bytes (<0 disables)")
	cacheMaxEntry := flag.Int64("cache-max-entry", 0, "cost-aware cache admission: results larger than this are never cached (0 = cache-bytes/8, <0 unbounded)")
	clientRate := flag.Float64("client-rate", 0, "per-client kernel requests/s keyed on X-Graphct-Client; excess gets 429 + Retry-After (0 disables)")
	clientBurst := flag.Int("client-burst", 0, "per-client token-bucket burst capacity (0 = 2x -client-rate)")
	timeout := flag.Duration("timeout", 0, "default per-request kernel deadline (0 = none)")
	drain := flag.Duration("drain", 30*time.Second, "shutdown drain budget for in-flight kernels")
	seed := flag.Int64("seed", 1, "random seed for sampling kernels")
	directed := flag.Bool("directed", false, "load -graph files as directed")
	snapshotEvery := flag.Int64("snapshot-every", 4096, "publish a live-graph epoch every N effective mutations (<0 = every batch)")
	ingestConcurrent := flag.Int("ingest-concurrent", 2, "ingest batches applying at once")
	ingestQueued := flag.Int("ingest-queue", 64, "ingest batches waiting for a slot before 429")
	maxBatch := flag.Int("max-batch", 1<<20, "updates accepted per ingest request")
	breakerThreshold := flag.Int("breaker-threshold", 5, "consecutive kernel failures tripping a (graph,kernel) circuit breaker (<0 disables)")
	breakerCooldown := flag.Duration("breaker-cooldown", time.Second, "how long a tripped breaker stays open before half-opening")
	debug := flag.Bool("debug", false, "expose the POST /debug/failpoints fault-injection endpoint and the /debug/pprof/ profiles")
	dataDir := flag.String("data-dir", "", "durability root: live graphs persist snapshots and a write-ahead batch log here and warm-restart on boot (empty = in-memory only)")
	retainEpochs := flag.Int("retain-epochs", 3, "durable snapshot epochs kept per live graph (also serve ?epoch=E point-in-time reads)")
	reorder := flag.String("reorder", "none", "relabel loaded graphs degree-descending for cache locality: degree or none (vertex ids in the API stay the file's; live graphs are never relabeled)")
	var graphs graphFlags
	flag.Var(&graphs, "graph", "preload NAME=FORMAT:PATH (formats: dimacs, edgelist, binary) or NAME=live:VERTICES (repeatable)")
	flag.Parse()

	layout := graph.Layout{}
	var err error
	if layout.Reorder, err = graph.ParseReorder(*reorder); err != nil {
		log.Fatalf("graphctd: -reorder: %v", err)
	}

	// GRAPHCT_FAILPOINTS arms fault injection before any request is
	// served; see internal/failpoint for the spec grammar. The armed
	// catalogue is logged so a chaos run is auditable.
	if spec := os.Getenv("GRAPHCT_FAILPOINTS"); spec != "" {
		if err := failpoint.Default.ArmAll(spec); err != nil {
			log.Fatalf("graphctd: GRAPHCT_FAILPOINTS: %v", err)
		}
		for _, st := range failpoint.Default.List() {
			log.Printf("failpoint armed: %s=%s", st.Name, st.Spec)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	switch *mode {
	case "router":
		// A router owns no graphs: reject worker-only flags loudly rather
		// than silently ignoring a -data-dir the operator expected to fill.
		if *workers == "" {
			log.Fatalf("graphctd: -mode router requires -workers")
		}
		if len(graphs) > 0 || *dataDir != "" || *follow != "" {
			log.Fatalf("graphctd: -graph, -data-dir and -follow are worker flags; a router owns no graphs")
		}
		shards, err := server.ParseShards(*workers)
		if err != nil {
			log.Fatalf("graphctd: -workers: %v", err)
		}
		rt := server.NewRouter(shards)
		httpSrv := &http.Server{Addr: *addr, Handler: rt}
		members := 0
		for _, sh := range shards {
			members += len(sh.Members)
		}
		log.Printf("graphctd routing on %s (%d shards, %d members)", *addr, len(shards), members)
		serveUntilSignal(ctx, httpSrv, *drain)
		return
	case "server":
	default:
		log.Fatalf("graphctd: unknown -mode %q (want server or router)", *mode)
	}
	if *workers != "" {
		log.Fatalf("graphctd: -workers requires -mode router")
	}

	reg := server.NewRegistry()
	reg.Layout = layout
	srv := server.New(reg, server.Config{
		MaxConcurrent:    *maxConcurrent,
		MaxQueued:        *maxQueued,
		CheapReserved:    *cheapReserved,
		CacheBytes:       *cacheBytes,
		CacheMaxEntry:    *cacheMaxEntry,
		ClientRate:       *clientRate,
		ClientBurst:      *clientBurst,
		DefaultTimeout:   *timeout,
		Seed:             *seed,
		IngestConcurrent: *ingestConcurrent,
		IngestQueued:     *ingestQueued,
		SnapshotEvery:    *snapshotEvery,
		MaxBatch:         *maxBatch,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
		Debug:            *debug,
		DataDir:          *dataDir,
		RetainEpochs:     *retainEpochs,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	// Bind immediately and preload in the background: /healthz answers
	// from the first instant while /readyz stays 503 until every -graph
	// has parsed, so load balancers hold traffic during multi-GiB loads.
	srv.SetReady(false)
	go func() {
		// Warm restart before preloads: every live graph with durable
		// state in -data-dir is rebuilt from its newest snapshot plus the
		// write-ahead log tail. /readyz reports "recovering" meanwhile.
		if *dataDir != "" {
			srv.SetRecovering(true)
			start := time.Now()
			n, err := srv.RecoverAll()
			srv.SetRecovering(false)
			if err != nil {
				log.Printf("graphctd: recovery: %v", err)
			}
			if n > 0 {
				log.Printf("recovered %d live graph(s) from %s in %v",
					n, *dataDir, time.Since(start).Round(time.Millisecond))
			}
		}
		for _, spec := range graphs {
			name, rest, ok := strings.Cut(spec, "=")
			if !ok {
				log.Fatalf("graphctd: bad -graph %q (want NAME=FORMAT:PATH)", spec)
			}
			format, path, ok := strings.Cut(rest, ":")
			if !ok {
				log.Fatalf("graphctd: bad -graph %q (want NAME=FORMAT:PATH)", spec)
			}
			start := time.Now()
			if format == "live" {
				n, err := strconv.Atoi(path)
				if err != nil {
					log.Fatalf("graphctd: bad -graph %q (want NAME=live:VERTICES)", spec)
				}
				// A recovered graph under the same name wins: the preload
				// flag declares the graph should exist, recovery already
				// restored its contents. A name whose recovery failed is
				// refused by AddLive, so the daemon exits non-zero with the
				// recovery error and leaves the durable state untouched.
				if _, ok := reg.Get(name); ok {
					log.Printf("live graph %q already recovered; keeping durable state", name)
					continue
				}
				if _, err := srv.AddLive(name, n); err != nil {
					log.Fatalf("graphctd: %v", err)
				}
				log.Printf("created live graph %q over %d vertices", name, n)
				continue
			}
			e, err := reg.Load(name, format, path, *directed)
			if err != nil {
				log.Fatalf("graphctd: %v", err)
			}
			log.Printf("loaded %q: %d vertices, %d edges in %v",
				name, e.Graph.NumVertices(), e.Graph.NumEdges(), time.Since(start).Round(time.Millisecond))
		}
		srv.SetReady(true)
		log.Printf("graphctd ready (%d graphs)", len(reg.List()))
	}()
	if *follow != "" {
		f := server.NewFollower(srv, *follow, *followInterval)
		go f.Run(ctx)
		log.Printf("graphctd following %s (poll %v)", *follow, *followInterval)
	}
	log.Printf("graphctd listening on %s (%d graphs preloading)", *addr, len(graphs))
	serveUntilSignal(ctx, httpSrv, *drain)
}

// serveUntilSignal runs httpSrv until ctx is cancelled (SIGINT/SIGTERM),
// then stops accepting connections and drains in-flight requests within
// the drain budget. Both roles share this lifecycle.
func serveUntilSignal(ctx context.Context, httpSrv *http.Server, drain time.Duration) {
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatalf("graphctd: %v", err)
	case <-ctx.Done():
	}
	log.Printf("graphctd: draining (budget %v)", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "graphctd: forced shutdown: %v\n", err)
		os.Exit(1)
	}
	log.Printf("graphctd: drained cleanly")
}
