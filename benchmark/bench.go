package main

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"time"
)

// sizes holds every size constant of the four workloads. fullSizes is
// what BENCHMARK.json's command measures; tinySizes runs the same code in
// well under a second per workload, for the smoke test and for the
// reference probes a traced run uses on layers its workload never calls.
type sizes struct {
	// Set-up repeats at least setupReps times and until setupFor has
	// passed (at most 15 times), so a short set-up is sampled more often;
	// setup_s is the median.
	setupReps int
	setupFor  time.Duration

	// Batch pipelines.
	rmatScale   int     // batch_rmat16 input: gen.PaperRMAT(rmatScale, seed)
	tweetScale  float64 // batch_tweets_sept input: tweets.Sept1Corpus(tweetScale, seed)
	bcSamples   int     // sources of the KCentrality(0, ·) step that bc_teps rates
	k1Samples   int     // sources of the KCentrality(1, ·) step
	diamSources int     // BFS sources of the diameter estimate
	bfsCount    int     // seeded BFS calls per repetition
	minReps     int     // timed repetitions, even when the window is shorter
	t1Reps      int     // single-threaded KCentrality repetitions of a traced run

	// Serving workloads.
	serveScale    int           // R-MAT scale of the served graph
	warmup        time.Duration // unmeasured traffic before the window
	poolSize      int           // serve_read_hot's fixed (kernel, params) pool
	coldPasses    int           // serve_read_hot's timed passes over the pool on an empty cache
	hotBCReqs     int           // serve_read_hot's kcentrality requests after the window, which rate its bc_teps
	batchSize     int           // updates per ingest batch
	batchEvery    time.Duration // the writer's pace: one batch is due this often
	bcEvery       int           // every bcEvery-th read is a kcentrality request
	bcReqSamples  int           // its ?samples=
	snapshotEvery int64         // leader's snapshot-on-threshold policy
	followEvery   time.Duration // follower tail interval
	probeCount    int           // samples per direct layer probe of a traced run
}

var fullSizes = sizes{
	setupReps: 3, setupFor: 2 * time.Second,

	rmatScale: 16, tweetScale: 0.1,
	bcSamples: 256, k1Samples: 4, diamSources: 64, bfsCount: 16,
	minReps: 3, t1Reps: 3,

	serveScale: 14, warmup: 2 * time.Second,
	poolSize: 64, coldPasses: 5, hotBCReqs: 9,
	batchSize: 1024, batchEvery: 40 * time.Millisecond, bcEvery: 40, bcReqSamples: 64,
	snapshotEvery: 32768, followEvery: 50 * time.Millisecond,
	probeCount: 200,
}

var tinySizes = sizes{
	setupReps: 1,

	rmatScale: 8, tweetScale: 0.002,
	bcSamples: 16, k1Samples: 2, diamSources: 8, bfsCount: 4,
	minReps: 2, t1Reps: 1,

	serveScale: 8, warmup: 50 * time.Millisecond,
	poolSize: 16, coldPasses: 2, hotBCReqs: 2,
	batchSize: 64, batchEvery: 5 * time.Millisecond, bcEvery: 10, bcReqSamples: 8,
	snapshotEvery: 256, followEvery: 10 * time.Millisecond,
	probeCount: 10,
}

// bench is the state of one workload run: its inputs' seed, the measured
// window, the tracer (nil when untraced), and what it has observed.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	sz       sizes
	tr       *tracer
	outDir   string // trace files and the live cluster's data directory go here

	mu        sync.Mutex
	samples   map[string][]float64 // seconds, keyed by span name
	attempted int
	failed    int
	failures  []string // first few failure messages, for the report
	hosted    []string // every listener address the run opened; all are closed when it returns
	dirs      []string // every directory the run made; all are removed when it returns
}

func newBench(workload string, seed int64, window time.Duration, sz sizes, tr *tracer, outDir string) *bench {
	return &bench{
		workload: workload, seed: seed, window: window, sz: sz, tr: tr, outDir: outDir,
		samples: make(map[string][]float64),
	}
}

// tempDir makes a directory under the run's output directory and records
// it, so that the end of the run can verify it is gone.
func (b *bench) tempDir(prefix string) (string, error) {
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(b.outDir, prefix)
	if err == nil {
		b.mu.Lock()
		b.dirs = append(b.dirs, dir)
		b.mu.Unlock()
	}
	return dir, err
}

// moreSetup reports whether set-up number i (from 0) is still due.
func (b *bench) moreSetup(i int, since time.Time) bool {
	return i < b.sz.setupReps || (time.Since(since) < b.sz.setupFor && i < 15)
}

// timed runs one call into a layer, counts it as an attempted operation,
// keeps its duration under name, and records a span when tracing.
func (b *bench) timed(parent int, name, req string, f func()) time.Duration {
	start := time.Now()
	d := b.timedQuiet(name, f)
	b.tr.add(parent, name, req, "", start, start.Add(d))
	return d
}

// group is timed for a step that encloses others: f parents its own
// calls on the span it is given.
func (b *bench) group(parent int, name, req string, f func(sp int)) time.Duration {
	sp := b.tr.open(parent, name, req)
	defer b.tr.close(sp)
	return b.timedQuiet(name, func() { f(sp) })
}

// timedQuiet is timed without a span of its own.
func (b *bench) timedQuiet(name string, f func()) time.Duration {
	start := time.Now()
	f()
	d := time.Since(start)
	b.mu.Lock()
	b.samples[name] = append(b.samples[name], d.Seconds())
	b.attempted++
	b.mu.Unlock()
	return d
}

// check counts one correctness check; a false one is a failed operation.
func (b *bench) check(ok bool, format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if !ok {
		b.fail(fmt.Sprintf(format, args...))
	}
}

// fail records a failed operation; callers hold b.mu.
func (b *bench) fail(msg string) {
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, msg)
	}
}

// med is the median of the durations recorded under name, in seconds.
func (b *bench) med(name string) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return median(b.samples[name])
}

// putMedians sets m[key] to the median seconds recorded under name, for
// the names this run recorded at all: a step the workload does not have
// gets no metric from it.
func (b *bench) putMedians(m map[string]float64, keys map[string]string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for name, key := range keys {
		if xs := b.samples[name]; len(xs) > 0 {
			m[key] = median(xs)
		}
	}
}

// quantile is the q-th (0..1) value of xs by nearest rank; 0 when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tail is the 99th percentile while xs holds at least 1000 samples, and
// otherwise the highest percentile that still has ten samples beyond it.
func tail(xs []float64) float64 {
	pct := 0.99
	if n := len(xs); n < 1000 {
		pct = max(0.5, 1-10/float64(max(n, 1)))
	}
	return quantile(xs, pct)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, and 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
