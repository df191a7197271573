package load

import (
	"context"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Op issues one request of a workload class and returns the HTTP status
// it observed (0 with a non-nil error for a transport failure). Ops must
// be safe for concurrent use: the driver calls one Op from many
// goroutines.
type Op func(ctx context.Context) (status int, err error)

// Class is one lane of the mixed workload. Exactly one pacing mode
// applies: QPS > 0 runs the class open-loop (requests fire at the target
// arrival rate whether or not earlier ones finished — the pacing that
// exposes queueing collapse, because a slow server faces undiminished
// arrivals), otherwise Workers run closed-loop (each worker issues
// back-to-back requests, so offered load self-throttles with latency).
type Class struct {
	Name    string
	Do      Op
	QPS     float64 // open-loop target arrival rate (requests/second)
	Workers int     // closed-loop workers when QPS == 0; open-loop in-flight cap otherwise (default 512)
}

// Options tune one Run.
type Options struct {
	// Duration is the measured window (default 5s). Warmup runs before it
	// and its samples are discarded: caches fill, lanes reach steady
	// state, and the quantiles describe the regime, not the ramp.
	Duration time.Duration
	Warmup   time.Duration
}

// ClassReport is the per-class result of a Run: counts, status mix, and
// the latency quantiles the SLOs are written against. All figures cover
// the measured window only (post-warmup).
type ClassReport struct {
	Name    string
	Mode    string // "open" or "closed"
	Workers int

	OfferedQPS  float64 // open-loop target
	AchievedQPS float64 // completions / measured window

	Requests int64            // completed requests measured
	Errors   int64            // transport failures (no status)
	Missed   int64            // open-loop arrivals dropped at the in-flight cap
	Status   map[string]int64 // "200" -> count

	P50Ms float64
	P95Ms float64
	P99Ms float64
	MaxMs float64
}

// Rate returns the fraction of measured requests that saw status (e.g.
// "429"), counting transport errors in the denominator.
func (c *ClassReport) Rate(status string) float64 {
	total := c.Requests + c.Errors
	if total == 0 {
		return 0
	}
	return float64(c.Status[status]) / float64(total)
}

// recorder accumulates one class's samples. Latencies are kept raw (8
// bytes each) rather than bucketed: a run is minutes at most, and exact
// quantiles make lanes-on/lanes-off comparisons trustworthy at the tail.
type recorder struct {
	mu        sync.Mutex
	latencies []float64 // ms, measured window only
	status    map[string]int64
	errors    int64
	missed    atomic.Int64
}

func (r *recorder) observe(ms float64, status int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.errors++
		return
	}
	r.latencies = append(r.latencies, ms)
	if r.status == nil {
		r.status = make(map[string]int64)
	}
	r.status[strconv.Itoa(status)]++
}

// quantile returns the q-th (0..1) latency by nearest rank over sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func (r *recorder) report(c Class, window time.Duration) ClassReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep := ClassReport{
		Name:     c.Name,
		Mode:     "closed",
		Workers:  c.Workers,
		Requests: int64(len(r.latencies)),
		Errors:   r.errors,
		Missed:   r.missed.Load(),
		Status:   r.status,
	}
	if rep.Status == nil {
		rep.Status = map[string]int64{}
	}
	if c.QPS > 0 {
		rep.Mode = "open"
		rep.OfferedQPS = c.QPS
	}
	if window > 0 {
		rep.AchievedQPS = float64(rep.Requests) / window.Seconds()
	}
	sorted := append([]float64(nil), r.latencies...)
	sort.Float64s(sorted)
	rep.P50Ms = quantile(sorted, 0.50)
	rep.P95Ms = quantile(sorted, 0.95)
	rep.P99Ms = quantile(sorted, 0.99)
	if n := len(sorted); n > 0 {
		rep.MaxMs = sorted[n-1]
	}
	return rep
}

// Run drives every class concurrently for warmup+duration and returns
// one report per class, in input order. It honors ctx cancellation
// (reports cover whatever was measured) and joins every goroutine it
// started before returning — the driver never leaks workers.
func Run(ctx context.Context, classes []Class, opt Options) []ClassReport {
	if opt.Duration <= 0 {
		opt.Duration = 5 * time.Second
	}
	start := time.Now()
	measureFrom := start.Add(opt.Warmup)
	stop := measureFrom.Add(opt.Duration)
	runCtx, cancel := context.WithDeadline(ctx, stop)
	defer cancel()

	recs := make([]*recorder, len(classes))
	var wg sync.WaitGroup
	for i, c := range classes {
		rec := &recorder{}
		recs[i] = rec
		issue := func() {
			t0 := time.Now()
			status, err := c.Do(runCtx)
			if t0.Before(measureFrom) || runCtx.Err() != nil {
				return // warmup sample, or torn down mid-request
			}
			rec.observe(float64(time.Since(t0))/float64(time.Millisecond), status, err)
		}
		if c.QPS > 0 {
			wg.Add(1)
			go func(c Class) {
				defer wg.Done()
				openLoop(runCtx, c, rec, issue, &wg)
			}(c)
			continue
		}
		workers := c.Workers
		if workers <= 0 {
			workers = 1
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for runCtx.Err() == nil {
					issue()
				}
			}()
		}
	}
	wg.Wait()

	// The measured window may have been cut short by ctx; report against
	// the window that actually elapsed.
	window := time.Since(measureFrom)
	if window > opt.Duration {
		window = opt.Duration
	}
	out := make([]ClassReport, len(classes))
	for i, c := range classes {
		out[i] = recs[i].report(c, window)
	}
	return out
}

// openLoop fires issue at c.QPS regardless of completions, spawning one
// goroutine per arrival up to an in-flight cap. Arrivals that find the
// cap exhausted are counted as missed rather than queued client-side:
// a growing missed count means the measured latencies understate how far
// past saturation the server is.
func openLoop(ctx context.Context, c Class, rec *recorder, issue func(), wg *sync.WaitGroup) {
	maxInflight := c.Workers
	if maxInflight <= 0 {
		maxInflight = 512
	}
	inflight := make(chan struct{}, maxInflight)
	interval := time.Duration(float64(time.Second) / c.QPS)
	if interval <= 0 {
		interval = time.Microsecond
	}
	// Deterministic phase offset so many classes with round rates do not
	// fire in lockstep at t=0.
	time.Sleep(time.Duration(rand.New(rand.NewSource(int64(len(c.Name)))).Int63n(int64(interval) + 1)))
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		select {
		case inflight <- struct{}{}:
		default:
			rec.missed.Add(1)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-inflight }()
			issue()
		}()
	}
}
