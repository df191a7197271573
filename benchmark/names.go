package main

// The names below are the benchmark's contract with every later change:
// BENCHMARK.json at the repository root declares the same sets, and
// TestNamesMatchManifest fails when the two drift apart.

// Workload names, in the order `-workload all` runs them.
const (
	wlBatchRMAT   = "batch_rmat16"
	wlBatchTweets = "batch_tweets_sept"
	wlServeHot    = "serve_read_hot"
	wlServeLive   = "serve_live_cluster"
)

var workloadNames = []string{wlBatchRMAT, wlBatchTweets, wlServeHot, wlServeLive}

// metricSpec declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts
// as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd lists the metrics an untraced run prints. Every workload
// reports every one of them (README.md says what each means per
// workload), because the acceptance procedure compares each metric on
// each workload.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"solution_s", "s", "lower", 0.25},
	{"build_edges_per_s", "edges/s", "higher", 0.25},
	{"bc_teps", "edges/s", "higher", 0.25},
	{"read_rps", "1/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
}

// perLayer lists the metrics a traced run prints, grouped by the module
// they attribute to.
var perLayer = []metricSpec{
	{Name: "gen.rmat_edges_s", Unit: "s", Better: "lower"},
	{Name: "tweets.generate_s", Unit: "s", Better: "lower"},
	{Name: "tweets.filter_spam_s", Unit: "s", Better: "lower"},
	{Name: "tweets.build_s", Unit: "s", Better: "lower"},
	{Name: "tweets.tweets_per_s", Unit: "1/s", Better: "higher"},

	{Name: "graph.from_edges_s", Unit: "s", Better: "lower"},
	{Name: "graph.reorder_degree_s", Unit: "s", Better: "lower"},
	{Name: "graph.undirected_s", Unit: "s", Better: "lower"},
	{Name: "graph.extract_s", Unit: "s", Better: "lower"},
	{Name: "graph.csr_bytes", Unit: "bytes", Better: "lower"},
	{Name: "dimacs.write_s", Unit: "s", Better: "lower"},
	{Name: "dimacs.parse_s", Unit: "s", Better: "lower"},
	{Name: "dimacs.parse_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "cc.components_s", Unit: "s", Better: "lower"},
	{Name: "cc.component_count", Unit: "count", Better: "lower"},
	{Name: "stats.degrees_s", Unit: "s", Better: "lower"},
	{Name: "stats.diameter_s", Unit: "s", Better: "lower"},
	{Name: "cluster.coefficients_s", Unit: "s", Better: "lower"},
	{Name: "kcore.decompose_s", Unit: "s", Better: "lower"},
	{Name: "bfs.search_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "bfs.teps", Unit: "edges/s", Better: "higher"},
	{Name: "rank.top_s", Unit: "s", Better: "lower"},

	{Name: "bc.sampled_s", Unit: "s", Better: "lower"},
	{Name: "bc.k1_s", Unit: "s", Better: "lower"},
	{Name: "bc.adaptive_s", Unit: "s", Better: "lower"},
	{Name: "bc.adaptive_samples", Unit: "count", Better: "lower"},
	{Name: "bc.adaptive_rounds", Unit: "count", Better: "lower"},
	{Name: "bc.sampled_t1_s", Unit: "s", Better: "lower"},
	{Name: "par.bc_parallel_eff", Unit: "share", Better: "higher"},

	{Name: "server.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "server.coalesced", Unit: "count", Better: "higher"},
	{Name: "server.kernel_runs", Unit: "count", Better: "lower"},
	{Name: "server.rejected_share", Unit: "share", Better: "lower"},
	{Name: "server.hit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.miss_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.path_overhead_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.resp_bytes_p50", Unit: "bytes", Better: "lower"},
	{Name: "server.ingest_batches", Unit: "count", Better: "higher"},
	{Name: "server.ingest_deduped", Unit: "count", Better: "lower"},
	{Name: "server.snapshots", Unit: "count", Better: "lower"},
	{Name: "server.wal_appends", Unit: "count", Better: "higher"},
	{Name: "server.ingest_updates_per_s", Unit: "1/s", Better: "higher"},
	{Name: "server.ingest_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.bc_req_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "stream.decode_s", Unit: "s", Better: "lower"},
	{Name: "stream.apply_updates_per_s", Unit: "1/s", Better: "higher"},
	{Name: "stream.snapshot_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.append_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "blob.snapshot_encode_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "blob.put_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "router.hop_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "router.failover_share", Unit: "share", Better: "lower"},
	{Name: "router.reads", Unit: "count", Better: "higher"},
	{Name: "router.writes", Unit: "count", Better: "higher"},
	{Name: "replica.lag_epochs_p50", Unit: "epochs", Better: "lower"},
	{Name: "replica.catchup_s", Unit: "s", Better: "lower"},

	{Name: "load.sent", Unit: "count", Better: "higher"},
	{Name: "load.ok", Unit: "count", Better: "higher"},
	{Name: "load.failed", Unit: "count", Better: "lower"},
	{Name: "load.status_429", Unit: "count", Better: "lower"},
	{Name: "load.status_412", Unit: "count", Better: "lower"},
	{Name: "load.read_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "load.client_self_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "runtime.num_cpu", Unit: "count", Better: "higher"},
	{Name: "runtime.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}
