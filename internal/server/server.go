// Package server implements graphctd's long-running analysis service: a
// registry of named in-memory CSR graphs shared by all clients, with the
// toolkit's kernels exposed as HTTP JSON endpoints. The paper's scripting
// interface amortizes one expensive ingest across many kernel invocations
// within a single process; this server extends that amortization across
// processes and users, holding graphs resident and serving concurrent
// analysis traffic.
//
// The serving path is built for concurrency, not just correctness:
//
//   - results are cached by (graph epoch, kernel, params) in a
//     byte-bounded LRU, so repeated analyses cost one map lookup;
//   - concurrent identical requests coalesce (singleflight) into one
//     kernel execution whose result every caller shares;
//   - kernel executions pass an admission-controlled pool — a bounded
//     number run at once (each already saturates cores via internal/par)
//     and a bounded queue applies backpressure by rejecting overflow with
//     429 rather than accumulating unbounded goroutines;
//   - every request carries a context deadline that the long-running
//     kernels (betweenness source loops, SSSP relaxation rounds, diameter
//     sampling) observe at cooperative checkpoints.
//
// The package is organized as composable roles around one serving core:
//
//   - server.go — the core: Config, the Server that owns a Registry plus
//     the admission (lanes.go), cache and breaker machinery, and the
//     worker-role mux; metrics.go names every /metrics counter once;
//   - handlers.go / kernels.go — the HTTP handlers and the kernel
//     dispatch table they validate against;
//   - ingest.go / persist.go — the live-graph write path (Live.apply, the
//     one batch-apply every role drives) and durability (commitEpoch);
//   - replica.go — the follower role: snapshot/WAL streaming endpoints
//     on the leader side, and the tailer that keeps a follower's graphs
//     bit-identical to the leader's at pinned epochs;
//   - router.go — the coordinator role: a mux-compatible Router that owns
//     no graphs and proxies to workers over a consistent-hash ring.
//
// cmd/graphctd composes these roles behind flags; embedders can do the
// same with New (worker) and NewRouter (coordinator).
package server

import (
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"graphct/internal/api"
	"graphct/internal/blob"
)

// Config tunes a Server.
type Config struct {
	// MaxConcurrent bounds simultaneously executing kernels (default 2).
	MaxConcurrent int
	// MaxQueued bounds kernel requests waiting for a slot; excess
	// requests get 429 (default 16). With lanes enabled (CheapReserved)
	// the bound applies per lane.
	MaxQueued int
	// CheapReserved enables QoS priority lanes: this many MaxConcurrent
	// slots are reserved for cheap-class kernels (stats, degrees,
	// components, clustering, kcores, bfs, sssp), capping expensive-class
	// kernels (kcentrality, diameter) at MaxConcurrent-CheapReserved so
	// cheap reads never queue behind a long centrality run. 0 (default)
	// disables the lanes: one shared pool, pre-QoS behavior.
	CheapReserved int
	// CacheBytes bounds the result cache (default 64 MiB; <0 disables).
	CacheBytes int64
	// CacheMaxEntry is the cost-aware cache admission bound: results
	// larger than this are served but never cached, so one giant
	// expensive result cannot evict hundreds of cheap entries. 0 defaults
	// to CacheBytes/8; negative disables the bound.
	CacheMaxEntry int64
	// ClientRate enables per-client token-bucket rate limiting of kernel
	// requests, keyed on the X-Graphct-Client header: each client earns
	// this many requests per second up to ClientBurst, and a drained
	// bucket answers 429 with Retry-After. 0 (default) disables limiting.
	ClientRate float64
	// ClientBurst is the token-bucket capacity per client (default 2×
	// ClientRate, minimum 1).
	ClientBurst int
	// DefaultTimeout bounds each kernel request that does not set its own
	// ?timeout_ms (0 = no default deadline).
	DefaultTimeout time.Duration
	// Seed drives the sampling kernels, so identical requests are
	// deterministic and cache/coalescing-friendly.
	Seed int64
	// IngestConcurrent bounds simultaneously applying ingest batches
	// (default 2). Ingest has its own pool so writer bursts and kernel
	// bursts cannot starve each other.
	IngestConcurrent int
	// IngestQueued bounds ingest batches waiting for a slot; excess gets
	// 429 (default 64).
	IngestQueued int
	// SnapshotEvery is the snapshot-on-threshold policy: a live graph
	// publishes a new epoch once this many effective mutations (edges
	// actually added or removed) accumulate. 0 defaults to 4096; negative
	// snapshots after every effective batch.
	SnapshotEvery int64
	// MaxBatch bounds the updates accepted in one ingest request
	// (default 1 << 20); larger batches get 413.
	MaxBatch int
	// BreakerThreshold trips a (graph, kernel) circuit breaker after this
	// many consecutive kernel failures (default 5; negative disables).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker stays open before it
	// half-opens for a single probe (default 1s).
	BreakerCooldown time.Duration
	// Debug exposes the failpoint control endpoint (/debug/failpoints).
	// Off by default: fault injection is an operator tool, not an API.
	Debug bool
	// DataDir enables durability: live graphs persist epoch snapshots to
	// a blob store under it and log every applied batch to a write-ahead
	// log between snapshots, so a restarted daemon recovers them (see
	// RecoverAll). Empty keeps the pre-durability in-memory behavior.
	DataDir string
	// RetainEpochs bounds how many durable snapshot epochs each live
	// graph keeps (default 3, minimum 1). Retained epochs serve
	// ?epoch=E point-in-time reads and give recovery fallbacks when the
	// newest snapshot is damaged.
	RetainEpochs int
}

// Server serves graph-analysis requests over a Registry.
type Server struct {
	reg      *Registry
	cache    *Cache
	flight   *flightGroup
	pool     *LanePool // kernel admission, QoS lanes per Config.CheapReserved
	ingest   *LanePool // ingest admission, laneless
	metrics  *Metrics
	breakers *BreakerSet
	limiter  *RateLimiter // nil = per-client rate limiting disabled
	mux      *http.ServeMux
	cfg      Config

	// ready gates /readyz: daemons flip it once preloads finish, so load
	// balancers hold traffic while multi-GiB graphs parse. Servers start
	// ready; cmd/graphctd opts into the not-ready window.
	ready atomic.Bool
	// recovering marks the boot-time replay window: /readyz reports
	// "recovering" (still 503) while RecoverAll rebuilds live graphs.
	recovering atomic.Bool

	// Durability state; store is nil without Config.DataDir.
	store  *blob.FS
	walDir string

	// hist caches point-in-time entries loaded for ?epoch=E reads.
	histMu sync.Mutex
	hist   map[string]*GraphEntry

	// beforeKernel, when non-nil, runs inside the pool slot right before
	// a kernel executes — a test seam for holding executions in flight.
	beforeKernel func(kernel string)
	// beforeIngest is the same seam for the ingest path, running inside
	// the ingest pool slot before the batch takes the writer lock.
	beforeIngest func(name string)
}

// New returns a Server over reg.
func New(reg *Registry, cfg Config) *Server {
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.IngestQueued <= 0 {
		cfg.IngestQueued = 64
	}
	if cfg.SnapshotEvery == 0 {
		cfg.SnapshotEvery = 4096
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 1 << 20
	}
	if cfg.RetainEpochs == 0 {
		cfg.RetainEpochs = 3
	}
	if cfg.RetainEpochs < 1 {
		cfg.RetainEpochs = 1
	}
	if cfg.ClientBurst == 0 {
		cfg.ClientBurst = int(2 * cfg.ClientRate)
	}
	s := &Server{
		reg:      reg,
		cache:    NewCache(cfg.CacheBytes),
		flight:   newFlightGroup(),
		pool:     NewLanePool(cfg.MaxConcurrent, cfg.CheapReserved, cfg.MaxQueued),
		ingest:   NewLanePool(cfg.IngestConcurrent, 0, cfg.IngestQueued),
		metrics:  NewMetrics(),
		breakers: NewBreakerSet(cfg.BreakerThreshold, cfg.BreakerCooldown),
		limiter:  NewRateLimiter(cfg.ClientRate, cfg.ClientBurst),
		cfg:      cfg,
		hist:     make(map[string]*GraphEntry),
	}
	switch {
	case cfg.CacheMaxEntry > 0:
		s.cache.SetMaxEntry(cfg.CacheMaxEntry)
	case cfg.CacheMaxEntry == 0 && cfg.CacheBytes > 0:
		s.cache.SetMaxEntry(cfg.CacheBytes / 8)
	}
	if cfg.DataDir != "" {
		s.store = blob.NewFS(filepath.Join(cfg.DataDir, "blobs"))
		s.walDir = filepath.Join(cfg.DataDir, "wal")
	}
	s.ready.Store(true)
	s.mux = s.buildMux()
	return s
}

// buildMux wires the worker role's HTTP surface over the serving core.
// It is the only place routes live, so an embedder composing a different
// surface (the router role, a test harness) shares every handler without
// inheriting the route table.
func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /debug/failpoints", s.handleFailpoints)
	mux.HandleFunc("POST /debug/failpoints", s.handleFailpoints)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /graphs", s.handleListGraphs)
	mux.HandleFunc("POST /graphs", s.handleLoadGraph)
	mux.HandleFunc("DELETE /graphs/{name}", s.handleDeleteGraph)
	mux.HandleFunc("POST /graphs/{name}/extract", s.handleExtract)
	mux.HandleFunc("POST /graphs/{name}/ingest", s.handleIngest)
	mux.HandleFunc("POST /graphs/{name}/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /graphs/{name}/epochs", s.handleEpochs)
	mux.HandleFunc("GET /graphs/{name}/snapshot", s.handleSnapshotGet)
	mux.HandleFunc("GET /graphs/{name}/wal", s.handleWALGet)
	mux.HandleFunc("GET /graphs/{name}/{kernel}", s.handleKernel)
	return mux
}

// Metrics exposes the server's counters (used by tests and cmd/graphctd).
func (s *Server) Metrics() *Metrics { return s.metrics }

// SetReady flips the /readyz gate. Servers construct ready; a daemon
// that preloads graphs in the background sets false before listening and
// true once every preload has parsed.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// SetRecovering marks the boot-time replay window so /readyz can report
// "recovering" (still not ready) while durable graphs rebuild.
func (s *Server) SetRecovering(recovering bool) { s.recovering.Store(recovering) }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON and writeError delegate to the shared wire contract so every
// process speaking the protocol produces identical bodies.
func writeJSON(w http.ResponseWriter, status int, v any) {
	api.WriteJSON(w, status, v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	api.WriteError(w, status, format, args...)
}
