package server

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets are the upper bounds (exclusive) of the per-kernel
// latency histogram, in milliseconds, growing roughly geometrically from
// sub-millisecond cache-adjacent work to multi-minute centrality runs.
// The final implicit bucket is +Inf.
var latencyBuckets = [...]int64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000}

// Histogram counts observations into fixed log-spaced millisecond
// buckets. All methods are safe for concurrent use.
type Histogram struct {
	counts [len(latencyBuckets) + 1]atomic.Int64
	sumMs  atomic.Int64
	n      atomic.Int64
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	ms := d.Milliseconds()
	i := 0
	for i < len(latencyBuckets) && ms >= latencyBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumMs.Add(ms)
	h.n.Add(1)
}

// HistogramSnapshot is the JSON form of a Histogram.
type HistogramSnapshot struct {
	Count   int64            `json:"count"`
	SumMs   int64            `json:"sum_ms"`
	Buckets map[string]int64 `json:"buckets,omitempty"` // upper-bound ms -> count, only non-zero
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Count: h.n.Load(), SumMs: h.sumMs.Load(), Buckets: make(map[string]int64)}
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if i < len(latencyBuckets) {
			s.Buckets[strconv.FormatInt(latencyBuckets[i], 10)+"ms"] = c
		} else {
			s.Buckets["+Inf"] = c
		}
	}
	return s
}

// counter is one /metrics counter: an atomic the serving path bumps, which
// encodes itself as a JSON number. Its wire name is the tag at its
// declaration in Metrics (or RouterMetrics) — the only place it is named.
type counter struct{ atomic.Int64 }

// MarshalJSON implements json.Marshaler.
func (c *counter) MarshalJSON() ([]byte, error) {
	return strconv.AppendInt(nil, c.Load(), 10), nil
}

// Metrics aggregates the serving-path counters exposed at /metrics. Each
// counter is declared — field, wire name, meaning — on one line here;
// /metrics encodes this struct as it stands (see metricsDoc).
type Metrics struct {
	Requests  counter `json:"requests"` // kernel requests accepted into the serving path
	CacheHits counter `json:"cache_hits"`
	CacheMiss counter `json:"cache_misses"`
	Coalesced counter `json:"coalesced"` // requests satisfied by another caller's run
	Rejected  counter `json:"rejected"`  // 429s from the admission queue
	Canceled  counter `json:"canceled"`  // kernels stopped by deadline/cancellation

	KCoreProfiles counter `json:"kcore_profiles"` // k-core profiles built: one per epoch that served kcores

	KernelPanics    counter `json:"kernel_panics"`     // kernel panics isolated by recover (500, not a crash)
	BreakerRejected counter `json:"breaker_rejected"`  // 503s from open circuit breakers
	StaleServed     counter `json:"stale_served"`      // rejected requests answered from the stale cache
	CacheDropped    counter `json:"cache_put_dropped"` // cache insertions dropped (cache.put failpoint)
	RateLimited     counter `json:"rate_limited"`      // 429s from per-client token buckets
	CacheOversized  counter `json:"cache_oversized"`   // results served but too large for cache admission

	IngestBatches     counter `json:"ingest_batches"`     // update batches applied to live graphs
	IngestUpdates     counter `json:"ingest_updates"`     // updates accepted inside those batches
	IngestMutations   counter `json:"ingest_mutations"`   // effective edge insertions + deletions
	IngestRejected    counter `json:"ingest_rejected"`    // 429s from the ingest queue
	IngestDeduped     counter `json:"ingest_deduped"`     // batches answered from the idempotency window
	IngestPanics      counter `json:"ingest_panics"`      // ingest panics isolated by recover
	Snapshots         counter `json:"snapshots"`          // epoch snapshots published
	SnapshotsDeferred counter `json:"snapshots_deferred"` // publications skipped (snapshot.publish failpoint)

	WALAppends         counter `json:"wal_appends"`         // batches durably logged
	WALErrors          counter `json:"wal_errors"`          // failed log appends (batch applied, durability deferred)
	WALTornTails       counter `json:"wal_torn_tails"`      // recoveries that stopped at a damaged log tail
	SnapshotsPersisted counter `json:"snapshots_persisted"` // epoch snapshots committed to the blob store
	SnapshotBytes      counter `json:"snapshot_bytes"`      // total bytes of persisted snapshots
	PersistErrors      counter `json:"persist_errors"`      // failed snapshot commits / log rotations
	RecoveredGraphs    counter `json:"recovered_graphs"`    // live graphs rebuilt at boot
	RecoveredBatches   counter `json:"recovered_batches"`   // logged batches replayed at boot
	RecoveryMs         counter `json:"recovery_ms"`         // wall time of the last RecoverAll

	ReplicaBootstraps counter `json:"replica_bootstraps"` // follower graph (re-)bootstraps from a leader snapshot
	ReplicaBatches    counter `json:"replica_batches"`    // WAL records applied by the follower tailer
	ReplicaEpochs     counter `json:"replica_epochs"`     // leader epochs pinned by the follower
	ReplicaErrors     counter `json:"replica_errors"`     // failed follower sync passes

	mu         sync.Mutex
	kernelRuns map[string]*atomic.Int64
	latency    map[string]*Histogram
}

// NewMetrics returns zeroed metrics.
func NewMetrics() *Metrics {
	return &Metrics{
		kernelRuns: make(map[string]*atomic.Int64),
		latency:    make(map[string]*Histogram),
	}
}

// KernelStarted counts one underlying execution of kernel (cache hits and
// coalesced requests do not count).
func (m *Metrics) KernelStarted(kernel string) {
	m.runsCounter(kernel).Add(1)
}

// KernelRuns returns how many times kernel actually executed.
func (m *Metrics) KernelRuns(kernel string) int64 {
	return m.runsCounter(kernel).Load()
}

func (m *Metrics) runsCounter(kernel string) *atomic.Int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.kernelRuns[kernel]
	if !ok {
		c = new(atomic.Int64)
		m.kernelRuns[kernel] = c
	}
	return c
}

// ObserveLatency records one end-to-end kernel execution latency.
func (m *Metrics) ObserveLatency(kernel string, d time.Duration) {
	m.mu.Lock()
	h, ok := m.latency[kernel]
	if !ok {
		h = new(Histogram)
		m.latency[kernel] = h
	}
	m.mu.Unlock()
	h.Observe(d)
}

// metricsDoc is the JSON document served at /metrics: the live counters,
// flattened in under their own wire names and read when it is encoded,
// plus the gauges read from the components that own them when it is built.
type metricsDoc struct {
	*Metrics

	QueueDepth   int64 `json:"queue_depth"`
	Running      int   `json:"running"`
	CacheBytes   int64 `json:"cache_bytes"`
	CacheItems   int   `json:"cache_items"`
	BreakerTrips int64 `json:"breaker_trips"`
	RateClients  int   `json:"rate_limit_clients"`

	// QoS lane gauges: zero-valued with lanes disabled (CheapReserved 0).
	CheapReserved    int   `json:"cheap_reserved"`
	CheapQueueDepth  int64 `json:"cheap_queue_depth"`
	ExpQueueDepth    int64 `json:"expensive_queue_depth"`
	ExpensiveRunning int64 `json:"expensive_running"`

	IngestQueueDepth int64 `json:"ingest_queue_depth"`
	IngestRunning    int   `json:"ingest_running"`

	KernelRuns map[string]int64             `json:"kernel_runs,omitempty"`
	LatencyMs  map[string]HistogramSnapshot `json:"latency_ms,omitempty"`
}

// doc pairs the live counters with the gauges owned by the two admission
// pools, the cache, the breaker set and the rate limiter (nil when
// limiting is off) of the server m belongs to.
func (m *Metrics) doc(pool, ingest *LanePool, cache *Cache, breakers *BreakerSet, limiter *RateLimiter) metricsDoc {
	s := metricsDoc{
		Metrics:          m,
		QueueDepth:       pool.QueueDepth(),
		Running:          pool.Running(),
		CacheBytes:       cache.Bytes(),
		CacheItems:       cache.Len(),
		BreakerTrips:     breakers.Trips(),
		RateClients:      limiter.Clients(),
		CheapReserved:    pool.Reserved(),
		ExpensiveRunning: pool.ExpensiveRunning(),
		IngestQueueDepth: ingest.QueueDepth(),
		IngestRunning:    ingest.Running(),
		KernelRuns:       make(map[string]int64),
		LatencyMs:        make(map[string]HistogramSnapshot),
	}
	s.CheapQueueDepth, s.ExpQueueDepth = pool.LaneDepths()
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, c := range m.kernelRuns {
		s.KernelRuns[k] = c.Load()
	}
	for k, h := range m.latency {
		s.LatencyMs[k] = h.snapshot()
	}
	return s
}
