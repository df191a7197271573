// Command benchmark is the repository's one benchmark: four named
// workloads over the batch kernels and the serving topology, all hosted
// inside this process, each printing the metrics BENCHMARK.json declares.
// README.md in this directory says what every name means and why.
//
//	bash benchmark/run.sh --workload batch_rmat16 --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --workload serve_read_hot --trace 1   # per-layer metrics + benchmark/out/trace-*.json
//	bash benchmark/run.sh --workload all --repeat 2             # do two sets agree within the bounds?
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// watchdog bounds one workload run. A run that reaches it is cancelled,
// tears its servers and files down, and fails.
const watchdog = 150 * time.Second

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	seed   int64
	window time.Duration
	sz     sizes
	traced bool
	outDir string
}

// runWorkload runs one workload to completion — set-up, window, checks,
// teardown — and returns every metric it measured under its own name.
func runWorkload(ctx context.Context, name string, o options) (map[string]float64, *bench, error) {
	ctx, cancel := context.WithTimeout(ctx, watchdog)
	defer cancel()
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	b := newBench(name, o.seed, o.window, o.sz, tr, o.outDir)
	var m map[string]float64
	var err error
	switch name {
	case wlBatchRMAT, wlBatchTweets:
		m, err = runBatch(ctx, b)
	case wlServeHot:
		m, err = runHot(ctx, b)
	case wlServeLive:
		m, err = runLive(ctx, b)
	default:
		err = fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, b, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m["runtime.num_cpu"] = float64(runtime.NumCPU())
	m["runtime.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	m["runtime.heap_peak_mb"] = float64(ms.HeapSys) / 1e6 // heap obtained from the OS: a high-water mark
	m["runtime.gc_pause_total_ms"] = float64(ms.PauseTotalNs) / 1e6
	return m, b, nil
}

// fillFromReference completes a traced run's per-layer set. The driver
// wants every per-layer metric from every traced run (README.md quotes the
// rule), and a layer the workload never calls has no measurement of its own
// there. Those metrics are taken from the other workloads run at tinySizes
// and are marked as such wherever a reader can see them: from[metric] names
// the workload a borrowed value came from, the printed table and the trace
// file repeat it. A layer's numbers are read on a workload that owns it.
func fillFromReference(ctx context.Context, name string, o options, m map[string]float64) (from map[string]string, refs []*bench, err error) {
	ref := options{seed: o.seed, window: 300 * time.Millisecond, sz: tinySizes, traced: true, outDir: o.outDir}
	from = make(map[string]string)
	for _, other := range workloadNames {
		if other == name {
			continue
		}
		rm, rb, err := runWorkload(ctx, other, ref)
		if err != nil {
			return nil, nil, fmt.Errorf("reference run of %s: %w", other, err)
		}
		if rb.failed > 0 {
			return nil, nil, fmt.Errorf("reference run of %s: %v", other, rb.failures)
		}
		refs = append(refs, rb)
		for _, spec := range perLayer {
			if _, ok := m[spec.Name]; !ok {
				if v, ok := rm[spec.Name]; ok {
					m[spec.Name], from[spec.Name] = v, other
				}
			}
		}
	}
	return from, refs, nil
}

// leftBehind looks for what finished runs still hold: goroutines beyond
// the count the process had before them, listeners that still accept, and
// directories that still exist. Every real run ends with it, so the defect
// PR 11 was rejected for fails the run that has it.
func leftBehind(goroutines int, runs ...*bench) []string {
	http.DefaultTransport.(*http.Transport).CloseIdleConnections() // the router's and the follower's pooled connections
	var found []string
	for _, b := range runs {
		for _, addr := range b.hosted {
			if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
				c.Close()
				found = append(found, "listener "+addr+" still accepts connections")
			}
		}
		for _, dir := range b.dirs {
			if _, err := os.Stat(dir); err == nil {
				found = append(found, "directory "+dir+" still exists")
			}
		}
	}
	// Goroutines take a moment to unwind after a shutdown; the runtime and
	// net/http keep a couple for themselves.
	const slack = 2
	for deadline := time.Now().Add(3 * time.Second); runtime.NumGoroutine() > goroutines+slack; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, true)]
			found = append(found, fmt.Sprintf("%d goroutines before the run, %d after it:\n%s", goroutines, runtime.NumGoroutine(), buf))
			break
		}
	}
	return found
}

// measure runs one workload as the driver asks for it and builds the
// result line: the end-to-end set untraced, the per-layer set traced. from
// names, for a traced run, the reference workload of each borrowed metric.
func measure(ctx context.Context, name string, o options) (res result, from map[string]string, err error) {
	goroutines := runtime.NumGoroutine()
	m, b, err := runWorkload(ctx, name, o)
	if err != nil {
		return result{}, nil, err
	}
	runs := []*bench{b}
	specs := endToEnd
	if o.traced {
		specs = perLayer
		var refs []*bench
		if from, refs, err = fillFromReference(ctx, name, o, m); err != nil {
			return result{}, nil, err
		}
		runs = append(runs, refs...)
		if err := b.tr.write(o.outDir, name, o.seed, from); err != nil {
			return result{}, nil, err
		}
	}
	left := leftBehind(goroutines, runs...)
	b.check(len(left) == 0, "left behind after teardown: %s", strings.Join(left, "; "))

	res = result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: make(map[string]metricValue)}
	for _, spec := range specs {
		v, ok := m[spec.Name]
		if !ok {
			return result{}, nil, fmt.Errorf("%s did not measure %s", name, spec.Name)
		}
		res.Metrics[spec.Name] = metricValue{v, spec.Unit}
	}
	for _, f := range b.failures {
		fmt.Fprintf(os.Stderr, "benchmark: %s: FAILED: %s\n", name, f)
	}
	return res, from, nil
}

func printResult(name string, specs []metricSpec, res result, from map[string]string) {
	fmt.Printf("%s: attempted %d, ok %d, failed %d (failed_share %g)\n",
		name, res.Attempted, res.Attempted-res.Failed, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	for _, spec := range specs {
		note := ""
		if ref, ok := from[spec.Name]; ok {
			note = "  [not this workload's: reference run of " + ref + " at tiny sizes]"
		}
		fmt.Printf("  %-32s %16.6g %s%s\n", spec.Name, res.Metrics[spec.Name].Value, spec.Unit, note)
	}
}

// repeat runs the untraced set n times, alternating the workload order,
// and reports for each end-to-end metric how far the sets disagree, as a
// share of their median. It fails when a metric's sets differ by more than
// the metric's own bound: such a metric would reject innocent changes.
func repeat(ctx context.Context, names []string, o options, n int) bool {
	values := make(map[string][]float64) // "workload metric" -> one value per set
	ok := true
	for set := 0; set < n; set++ {
		order := slices.Clone(names)
		if set%2 == 1 {
			slices.Reverse(order)
		}
		for _, name := range order {
			res, _, err := measure(ctx, name, o)
			if err != nil || !res.Correct {
				fmt.Fprintf(os.Stderr, "benchmark: set %d, %s: correct=%v, %v\n", set, name, res.Correct, err)
				return false
			}
			for _, spec := range endToEnd {
				key := name + " " + spec.Name
				values[key] = append(values[key], res.Metrics[spec.Name].Value)
			}
		}
	}
	for _, name := range names {
		for _, spec := range endToEnd {
			v := values[name+" "+spec.Name]
			spread := (slices.Max(v) - slices.Min(v)) / median(v)
			verdict := "ok"
			if spread > spec.Bound {
				verdict, ok = "BEYOND BOUND", false
			}
			fmt.Printf("%-20s %-20s spread %.4f bound %.2f %-12s sets %v\n", name, spec.Name, spread, spec.Bound, verdict, v)
		}
	}
	return ok
}

// fingerprint describes the machine a number came from.
func fingerprint() string {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	cpu := "unknown"
	info, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(info), "\n") {
		if name, model, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			cpu = strings.TrimSpace(model)
			break
		}
	}
	return fmt.Sprintf("num_cpu=%d gomaxprocs=%d go=%s kernel=%s cpu=%q",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), strings.TrimSpace(string(kernel)), cpu)
}

func main() {
	workload := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 15, "measured window per run")
	trace := flag.Int("trace", 0, "1 = traced run: print the per-layer metrics and write <out>/trace-<workload>.json")
	reps := flag.Int("repeat", 1, "run the untraced set this many times and fail if the sets disagree beyond the bounds")
	outDir := flag.String("out", "benchmark/out", "directory for trace files and the live cluster's data directory")
	flag.Parse()

	if p := runtime.GOMAXPROCS(0); p > runtime.NumCPU() {
		// Threads time-slicing one core measure the scheduler, not the
		// kernels: no parallel rate or efficiency is recorded from that.
		fmt.Fprintf(os.Stderr, "benchmark: refusing to measure with GOMAXPROCS %d on %d CPUs\n", p, runtime.NumCPU())
		os.Exit(2)
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	fmt.Fprintln(os.Stderr, "benchmark:", fingerprint())

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	o := options{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), sz: fullSizes,
		traced: *trace == 1, outDir: *outDir}

	// Last resort against a call that ignores cancellation: leave with a
	// failure rather than hang the caller. Process exit ends every
	// listener and goroutine; the data directory lives under -out.
	time.AfterFunc(time.Duration(len(names)**reps)*(watchdog+20*time.Second), func() {
		fmt.Fprintln(os.Stderr, "benchmark: run did not end; giving up")
		os.Exit(3)
	})

	ctx := context.Background()
	if *reps > 1 {
		if !repeat(ctx, names, o, *reps) {
			os.Exit(1)
		}
		return
	}
	specs := endToEnd
	if o.traced {
		specs = perLayer
	}
	failed := false
	for _, name := range names {
		res, from, err := measure(ctx, name, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		printResult(name, specs, res, from)
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		failed = failed || !res.Correct
	}
	if failed {
		os.Exit(1)
	}
}
