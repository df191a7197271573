package server

import (
	"context"
	"errors"
	"sync/atomic"

	"graphct/internal/api"
)

// ErrQueueFull rejects a request when its admission queue is at capacity —
// the server's backpressure signal, mapped to HTTP 429.
var ErrQueueFull = errors.New("server: admission queue full")

// QoS cost classes. Every kernel request is classified before admission
// and the class travels with the response as X-Graphct-Class, so clients
// and the load harness can attribute latency to the lane that served it.
// The values are the wire contract's (internal/api); the local names keep
// call sites short.
const (
	ClassCheap     = api.ClassCheap
	ClassExpensive = api.ClassExpensive
)

// costClass assigns a kernel its admission class. Expensive kernels are
// the ones whose single execution can hold a pool slot for seconds to
// minutes (sampled betweenness, diameter estimation — both sweep many
// BFS/SSSP sources); everything else answers in microseconds to tens of
// milliseconds and must never queue behind them.
func costClass(kernel string) string {
	switch kernel {
	case "kcentrality", "diameter":
		return ClassExpensive
	}
	return ClassCheap
}

// LanePool is the admission pool, used twice per server: QoS-aware for
// kernels, laneless for ingest batches. At most maxRunning kernels execute
// at once (each already parallelizes internally via internal/par, so
// running many concurrently would oversubscribe the machine and balloon
// working memory), at most maxQueued further requests wait for a slot, and
// requests beyond that are rejected immediately rather than piling up.
// When a cheap reservation is configured, at most maxRunning-reserved of
// the slots may be held by expensive-class kernels. The reservation is
// what keeps millions of cheap stat reads responsive while sparse
// betweenness requests run: however saturated the expensive lane is —
// every allowed slot held, more queued — a cheap request still finds a
// free slot, because expensive admissions are capped below the total.
//
// Each class also queues separately (maxQueued waiters per lane), so a
// burst of expensive requests fills the expensive queue and starts
// returning 429 without consuming the cheap lane's queue capacity.
// reserved <= 0 disables the lanes entirely: one shared slot pool, one
// shared queue bound, the class argument ignored — which is the ingest
// pool.
type LanePool struct {
	slots     chan struct{} // total concurrency
	expensive chan struct{} // nil when lanes are disabled; caps expensive slot-holders

	cheapWaiting atomic.Int64
	expWaiting   atomic.Int64
	expRunning   atomic.Int64
	maxQ         int64
	reserved     int
}

// NewLanePool returns a pool running at most maxRunning kernels with at
// most maxQueued waiters per lane, reserving reserved slots for
// cheap-class kernels. Non-positive maxRunning/maxQueued default to 2
// and 16; reserved is clamped so at least one slot
// remains available to the expensive class.
func NewLanePool(maxRunning, reserved, maxQueued int) *LanePool {
	if maxRunning <= 0 {
		maxRunning = 2
	}
	if maxQueued <= 0 {
		maxQueued = 16
	}
	if reserved >= maxRunning {
		reserved = maxRunning - 1
	}
	p := &LanePool{
		slots:    make(chan struct{}, maxRunning),
		maxQ:     int64(maxQueued),
		reserved: reserved,
	}
	if reserved > 0 {
		p.expensive = make(chan struct{}, maxRunning-reserved)
	}
	return p
}

// Reserved returns the cheap-only slot count (0 = lanes disabled).
func (p *LanePool) Reserved() int { return p.reserved }

// admit claims a token from lane, queueing under waiting against maxQ.
func (p *LanePool) admit(ctx context.Context, lane chan struct{}, waiting *atomic.Int64) error {
	// Fast path: a free slot admits without queuing.
	select {
	case lane <- struct{}{}:
		return nil
	default:
	}
	if waiting.Add(1) > p.maxQ {
		waiting.Add(-1)
		return ErrQueueFull
	}
	defer waiting.Add(-1)
	select {
	case lane <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Acquire claims an execution slot for a request of the given class,
// waiting in that class's admission queue if necessary. It fails fast
// with ErrQueueFull when the class's queue is at capacity and returns
// ctx.Err() if the deadline expires while queued. Every successful
// Acquire must be paired with a Release of the same class.
func (p *LanePool) Acquire(ctx context.Context, class string) error {
	if p.expensive == nil || class != ClassExpensive {
		return p.admit(ctx, p.slots, &p.cheapWaiting)
	}
	// Expensive admission is two-stage: first a lane token (this is the
	// bounded queue — it caps how many expensive kernels may hold or be
	// about to hold a slot at maxRunning-reserved), then a total slot.
	// The second wait is unbounded but can only contend with cheap
	// kernels actually running, which finish in milliseconds; it never
	// rejects, because the request already passed lane admission.
	if err := p.admit(ctx, p.expensive, &p.expWaiting); err != nil {
		return err
	}
	select {
	case p.slots <- struct{}{}:
		p.expRunning.Add(1)
		return nil
	case <-ctx.Done():
		<-p.expensive
		return ctx.Err()
	}
}

// Release returns a slot claimed by Acquire with the same class.
func (p *LanePool) Release(class string) {
	<-p.slots
	if p.expensive != nil && class == ClassExpensive {
		p.expRunning.Add(-1)
		<-p.expensive
	}
}

// QueueDepth returns the total number of requests waiting across lanes.
func (p *LanePool) QueueDepth() int64 {
	return p.cheapWaiting.Load() + p.expWaiting.Load()
}

// LaneDepths returns the per-class queue depths.
func (p *LanePool) LaneDepths() (cheap, expensive int64) {
	return p.cheapWaiting.Load(), p.expWaiting.Load()
}

// Running returns the number of kernels currently executing.
func (p *LanePool) Running() int { return len(p.slots) }

// ExpensiveRunning returns how many expensive-class kernels hold slots
// (always 0 with lanes disabled — the pool does not track classes then).
func (p *LanePool) ExpensiveRunning() int64 { return p.expRunning.Load() }

// Accepting reports whether the cheap lane still has queue headroom — the
// readiness signal. The cheap lane is deliberately the gate: a daemon
// drowning in expensive requests but still serving stats is degraded, not
// down, and upstream load balancers should keep sending the cheap reads
// the reservation protects.
func (p *LanePool) Accepting() bool { return p.cheapWaiting.Load() < p.maxQ }
