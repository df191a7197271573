// Command bench is the repo's reproducible perf-trajectory harness: it
// runs the betweenness-centrality kernel through testing.Benchmark under
// fixed seeds and writes a machine-readable report (BENCH_PR7.json by
// default) recording kernel, ns/op, edges/sec, adjacency bytes and
// GOMAXPROCS. Re-running it on the same hardware reproduces the numbers
// a PR quotes; each perf PR appends its own BENCH_PRn.json and compares.
//
// The configuration matrix is the vertex-order ablation, the shipped
// default last:
//
//	baseline           generator vertex order
//	reorder (default)  degree-descending relabeling, what graphctd
//	                   -reorder degree serves
//
// Both rows run over raw sorted CSR; the aggregate speedup the report
// headlines is the shipped default against the baseline. edges/sec counts
// NumArcs() once per source per iteration — the same convention as
// BenchmarkCentrality in bench_test.go, so the two report comparable
// throughput.
//
// -guard FILE runs only the full configuration and exits nonzero when
// its BC throughput falls below 80% of the committed report's, which is
// the CI bench-smoke job (scaled guard: CI benches a smaller scale than
// the committed scale-16 report, and smaller working sets only run
// faster, so the one-sided 0.8× bound stays meaningful).
//
// -approx switches to the adaptive approximate-BC ablation (BENCH_PR10):
// one measured full exact run and one adaptive (ε,δ) run on the default
// layout, reported in the same schema with an "approx" block recording
// the guarantee metadata and the wall-clock speedup. The approx row's
// edges/s is the equivalent-exact-work rate (arcs × n / wall time), so
// the two rows' ratios are directly comparable. -approx-guard FILE is
// the CI mode: measure both at the current (small) scale, fail when the
// speedup falls below 3×, and schema-check the committed report; -check
// FILE validates a report without running anything.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"graphct/internal/bc"
	"graphct/internal/gen"
	"graphct/internal/graph"
)

type result struct {
	Kernel          string  `json:"kernel"`
	Layout          string  `json:"layout"`
	NsPerOp         int64   `json:"ns_per_op"`
	EdgesPerSec     float64 `json:"edges_per_sec"`
	Iterations      int     `json:"iterations"`
	AdjBytes        int64   `json:"adj_bytes"`
	MemoryFootprint int64   `json:"memory_footprint"`
}

type report struct {
	Generator        string   `json:"generator"`
	GoMaxProcs       int      `json:"gomaxprocs"`
	NumCPU           int      `json:"num_cpu"`
	GoVersion        string   `json:"go_version"`
	RMATScale        int      `json:"rmat_scale"`
	Vertices         int      `json:"vertices"`
	Arcs             int64    `json:"arcs"`
	Samples          int      `json:"samples"`
	Seed             int64    `json:"seed"`
	Reps             int      `json:"reps"`
	AggregateSpeedup float64  `json:"aggregate_speedup"`
	Results          []result `json:"results"`
	// Approx holds the adaptive approximate-BC ablation's guarantee
	// metadata and speedup (-approx mode only).
	Approx *approxInfo `json:"approx,omitempty"`

	// Retained only so committed reports (BENCH_PR7.json, BENCH_PR10.json)
	// still parse under checkReport's DisallowUnknownFields: they predate
	// the single raw adjacency layout and the fixed degree reordering.
	// New reports leave them out.
	Reorder          string  `json:"reorder,omitempty"`
	RawAdjBytes      int64   `json:"raw_adj_bytes,omitempty"`
	CompactAdjBytes  int64   `json:"compact_adj_bytes,omitempty"`
	CompressionRatio float64 `json:"compression_ratio,omitempty"`
}

// approxInfo records the adaptive run's (ε,δ) contract and the measured
// exact-vs-adaptive wall-clock comparison.
type approxInfo struct {
	Epsilon        float64 `json:"epsilon"`
	Delta          float64 `json:"delta"`
	SamplesUsed    int     `json:"samples_used"`
	Rounds         int     `json:"rounds"`
	Stopped        bool    `json:"stopped"`
	ExactNs        int64   `json:"exact_ns"`
	ApproxNs       int64   `json:"approx_ns"`
	SpeedupVsExact float64 `json:"speedup_vs_exact"`
}

func main() {
	var (
		scale   = flag.Int("scale", 16, "R-MAT scale (2^scale vertices, paper parameters)")
		samples = flag.Int("samples", 32, "sampled betweenness sources per run")
		seed    = flag.Int64("seed", 1, "generator and sampling seed")
		procs   = flag.Int("procs", 4, "GOMAXPROCS for the runs (acceptance floor is 4)")
		k       = flag.Int("k", 1, "k for the k-betweenness rows (0 skips them)")
		guard   = flag.String("guard", "", "CI mode: run only the full configuration and fail if BC edges/s drops below 80% of this committed report")
		out     = flag.String("out", "BENCH_PR7.json", "output path; - for stdout")
		only    = flag.String("only", "", "run a single ablation layout (for profiling); skips the JSON report")
		reps    = flag.Int("reps", 3, "benchmark repetitions per row; the fastest is reported (noise floor)")
		profile = flag.String("cpuprofile", "", "write a CPU profile of the benchmark runs to this file")

		approx      = flag.Bool("approx", false, "run the adaptive approximate-BC ablation instead of the layout matrix")
		eps         = flag.Float64("eps", bc.DefaultEpsilon, "adaptive estimator absolute-error bound (approx mode)")
		delta       = flag.Float64("delta", bc.DefaultDelta, "adaptive estimator failure probability (approx mode)")
		approxGuard = flag.String("approx-guard", "", "CI mode: run the approx ablation at -scale, fail if the speedup is under 3x, and schema-check this committed report")
		check       = flag.String("check", "", "validate a committed report's schema and exit (no benchmarks run)")
	)
	flag.Parse()
	if *check != "" {
		if err := checkReport(*check); err != nil {
			fmt.Fprintln(os.Stderr, "bench: -check:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "check: %s ok\n", *check)
		return
	}
	// NumCPU is recorded before the GOMAXPROCS override so the report
	// states the machine's real core count next to the (possibly
	// oversubscribed) worker count the numbers were taken at.
	numCPU := runtime.NumCPU()
	runtime.GOMAXPROCS(*procs)
	if *reps > 0 {
		benchReps = *reps
	}

	fmt.Fprintf(os.Stderr, "generating R-MAT scale %d (seed %d)...\n", *scale, *seed)
	raw := gen.RMAT(gen.PaperRMAT(*scale, *seed))
	arcs := raw.NumArcs()

	reordered, _, err := graph.Layout{Reorder: graph.ReorderDegree}.Apply(raw)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}

	rep := report{
		Generator:  fmt.Sprintf("cmd/bench -scale %d -samples %d -seed %d", *scale, *samples, *seed),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     numCPU,
		GoVersion:  runtime.Version(),
		RMATScale:  *scale,
		Vertices:   raw.NumVertices(),
		Arcs:       arcs,
		Samples:    *samples,
		Seed:       *seed,
		Reps:       benchReps,
	}

	if *approx || *approxGuard != "" {
		// The approx ablation compares on the shipped default layout only.
		rep.Generator = fmt.Sprintf("cmd/bench -approx -scale %d -eps %g -delta %g -seed %d",
			*scale, *eps, *delta, *seed)
		rep.Samples = 0 // the exact row sweeps every source
		runApprox(&rep, reordered, arcs, *eps, *delta, *seed, *out, *approxGuard)
		return
	}

	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	steps := []struct {
		layout string
		g      *graph.Graph
	}{
		{"baseline", raw},
		{defaultLayout, reordered},
	}
	if *guard != "" {
		steps = steps[len(steps)-1:] // full configuration only
	} else if *only != "" {
		kept := steps[:0]
		for _, st := range steps {
			if st.layout == *only {
				kept = append(kept, st)
			}
		}
		if len(kept) == 0 {
			fmt.Fprintf(os.Stderr, "bench: -only: unknown layout %q\n", *only)
			os.Exit(2)
		}
		steps = kept
	}
	for _, st := range steps {
		g := st.g
		opt := bc.Options{Samples: *samples, Seed: *seed}
		rep.Results = append(rep.Results, run("centrality", st.layout, g, arcs, int64(*samples), func() {
			bc.Centrality(g, opt)
		}))
	}
	if *guard != "" {
		runGuard(*guard, rep.Results[len(rep.Results)-1])
		return
	}
	if *only != "" {
		return // per-run lines already printed; no report for partial matrices
	}
	rep.AggregateSpeedup = rep.Results[len(rep.Results)-1].EdgesPerSec / rep.Results[0].EdgesPerSec
	if *k > 0 {
		// k-betweenness at both ablation endpoints.
		for _, st := range []struct {
			layout string
			g      *graph.Graph
		}{
			{"baseline", raw},
			{defaultLayout, reordered},
		} {
			g := st.g
			opt := bc.Options{K: *k, Samples: *samples, Seed: *seed}
			rep.Results = append(rep.Results, run(fmt.Sprintf("kcentrality/k=%d", *k), st.layout, g, arcs, int64(*samples), func() {
				bc.Centrality(g, opt)
			}))
		}
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	table := os.Stdout
	if *out == "-" {
		os.Stdout.Write(enc)
		table = os.Stderr
	} else {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	}
	printTable(table, &rep)
}

// printTable renders the ablation as a human-readable stdout table; the
// JSON report stays the machine-readable artifact.
func printTable(w *os.File, rep *report) {
	fmt.Fprintf(w, "\nvertex-order ablation: R-MAT scale %d, %d arcs, %d samples, GOMAXPROCS=%d\n\n",
		rep.RMATScale, rep.Arcs, rep.Samples, rep.GoMaxProcs)
	fmt.Fprintf(w, "%-22s %-22s %14s %14s %12s %8s\n", "kernel", "layout", "ns/op", "edges/s", "adj bytes", "speedup")
	base := make(map[string]float64)
	for _, r := range rep.Results {
		if r.Layout == "baseline" {
			base[r.Kernel] = r.EdgesPerSec
		}
		speedup := "-"
		if b := base[r.Kernel]; b > 0 {
			speedup = fmt.Sprintf("%.2fx", r.EdgesPerSec/b)
		}
		fmt.Fprintf(w, "%-22s %-22s %14d %14.0f %12d %8s\n",
			r.Kernel, r.Layout, r.NsPerOp, r.EdgesPerSec, r.AdjBytes, speedup)
	}
	if rep.Approx != nil {
		a := rep.Approx
		fmt.Fprintf(w, "\nadaptive guarantee: eps=%g delta=%g, %d samples in %d rounds (stopped=%v)\n",
			a.Epsilon, a.Delta, a.SamplesUsed, a.Rounds, a.Stopped)
		fmt.Fprintf(w, "speedup vs exact: %.1fx (%.2fs -> %.3fs)\n",
			a.SpeedupVsExact, float64(a.ExactNs)*1e-9, float64(a.ApproxNs)*1e-9)
		return
	}
	if rep.AggregateSpeedup > 0 {
		fmt.Fprintf(w, "aggregate BC speedup (default vs baseline): %.2fx\n", rep.AggregateSpeedup)
	}
}

// runGuard compares the just-measured full-configuration BC throughput
// against the committed report and exits nonzero on a >20% regression.
func runGuard(path string, measured result) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -guard:", err)
		os.Exit(1)
	}
	var committed report
	if err := json.Unmarshal(data, &committed); err != nil {
		fmt.Fprintln(os.Stderr, "bench: -guard:", err)
		os.Exit(1)
	}
	var want float64
	for _, r := range committed.Results {
		if strings.HasPrefix(r.Kernel, "centrality") && strings.HasSuffix(r.Layout, "(default)") {
			want = r.EdgesPerSec
		}
	}
	if want <= 0 {
		fmt.Fprintf(os.Stderr, "bench: -guard: no full-configuration centrality row in %s\n", path)
		os.Exit(1)
	}
	floor := 0.8 * want
	fmt.Fprintf(os.Stderr, "guard: measured %.0f edges/s, committed %.0f, floor %.0f\n",
		measured.EdgesPerSec, want, floor)
	if measured.EdgesPerSec < floor {
		fmt.Fprintf(os.Stderr, "guard: FAIL — BC throughput regressed more than 20%%\n")
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "guard: ok")
}

// run benchmarks fn via testing.Benchmark and converts the timing into
// the report row. edgesTraversed is arcs × sources per iteration — the
// throughput denominator. The row records the fastest of benchReps
// repetitions: scheduler and frequency noise on shared machines only ever
// slows a run down, so the minimum is the stable estimator and repeated
// invocations agree far better than single-shot timings.
func run(kernel, layout string, g *graph.Graph, arcs, sources int64, fn func()) result {
	fmt.Fprintf(os.Stderr, "%-14s %-22s ", kernel, layout)
	var ns int64
	iters := 0
	for rep := 0; rep < benchReps; rep++ {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
		if ns == 0 || r.NsPerOp() < ns {
			ns = r.NsPerOp()
			iters = r.N
		}
	}
	eps := float64(arcs*sources) / (float64(ns) * 1e-9)
	fmt.Fprintf(os.Stderr, "%12d ns/op %14.0f edges/s\n", ns, eps)
	return result{
		Kernel: kernel, Layout: layout, NsPerOp: ns, EdgesPerSec: eps,
		Iterations: iters, AdjBytes: 4 * g.NumArcs(), MemoryFootprint: g.MemoryFootprint(),
	}
}

// benchReps is the -reps flag: repetitions per row, fastest reported.
var benchReps = 1

// defaultLayout labels the row measured on the shipped default layout. The
// guard finds the committed report's row by the "(default)" suffix, which
// also matches BENCH_PR7.json's "reorder+arena (default)": that report
// predates the removal of the arena scratch allocator.
const defaultLayout = "reorder (default)"

// runApprox measures the adaptive approximate-BC ablation: one full exact
// run and benchReps adaptive runs on the default layout. The exact row is
// timed directly rather than through testing.Benchmark — at the committed
// scale a single exact sweep takes the better part of an hour, and a
// wall-clock measurement of one run is exactly the quantity the speedup
// claim is about. The adaptive row keeps the best-of-reps convention (it
// is cheap enough to repeat). Both rows' edges/s is the equivalent-exact-
// work rate arcs × n / wall time, so their ratio is the wall-clock
// speedup. With guardPath set this is the CI gate: fail when the measured
// speedup is under 3× and schema-check the committed report instead of
// writing a new one.
func runApprox(rep *report, g *graph.Graph, arcs int64, eps, delta float64, seed int64, outPath, guardPath string) {
	n := g.NumVertices()
	exactWork := float64(arcs) * float64(n)
	layout := defaultLayout

	fmt.Fprintf(os.Stderr, "%-36s %-22s ", "centrality/exact", layout)
	t0 := time.Now()
	bc.Centrality(g, bc.Options{Seed: seed})
	exactNs := time.Since(t0).Nanoseconds()
	exactEPS := exactWork / (float64(exactNs) * 1e-9)
	fmt.Fprintf(os.Stderr, "%14d ns/op %14.0f edges/s\n", exactNs, exactEPS)
	rep.Results = append(rep.Results, result{
		Kernel: "centrality/exact", Layout: layout, NsPerOp: exactNs,
		EdgesPerSec: exactEPS, Iterations: 1,
		AdjBytes: 4 * g.NumArcs(), MemoryFootprint: g.MemoryFootprint(),
	})

	approxKernel := fmt.Sprintf("centrality/approx(eps=%g,delta=%g)", eps, delta)
	opt := bc.ApproxOptions{Epsilon: eps, Delta: delta, Seed: seed}
	fmt.Fprintf(os.Stderr, "%-36s %-22s ", approxKernel, layout)
	var approxNs int64
	var ar *bc.ApproxResult
	for r := 0; r < benchReps; r++ {
		t0 := time.Now()
		res := bc.ApproxCentrality(g, opt)
		ns := time.Since(t0).Nanoseconds()
		if approxNs == 0 || ns < approxNs {
			approxNs = ns
		}
		ar = res // deterministic: every rep returns identical scores
	}
	approxEPS := exactWork / (float64(approxNs) * 1e-9)
	fmt.Fprintf(os.Stderr, "%14d ns/op %14.0f edges/s (equiv)\n", approxNs, approxEPS)
	rep.Results = append(rep.Results, result{
		Kernel: approxKernel, Layout: layout, NsPerOp: approxNs,
		EdgesPerSec: approxEPS, Iterations: benchReps,
		AdjBytes: 4 * g.NumArcs(), MemoryFootprint: g.MemoryFootprint(),
	})

	speedup := float64(exactNs) / float64(approxNs)
	rep.AggregateSpeedup = speedup
	rep.Approx = &approxInfo{
		Epsilon:        ar.Guarantee.Epsilon,
		Delta:          ar.Guarantee.Delta,
		SamplesUsed:    ar.Guarantee.SamplesUsed,
		Rounds:         ar.Guarantee.Rounds,
		Stopped:        ar.Guarantee.Stopped,
		ExactNs:        exactNs,
		ApproxNs:       approxNs,
		SpeedupVsExact: speedup,
	}
	fmt.Fprintf(os.Stderr, "approx: %d samples in %d rounds (stopped=%v), speedup %.1fx over exact (n=%d)\n",
		ar.Guarantee.SamplesUsed, ar.Guarantee.Rounds, ar.Guarantee.Stopped, speedup, n)

	if guardPath != "" {
		const floor = 3.0
		if speedup < floor {
			fmt.Fprintf(os.Stderr, "approx-guard: FAIL — speedup %.2fx below the %.0fx floor\n", speedup, floor)
			os.Exit(1)
		}
		if err := checkReport(guardPath); err != nil {
			fmt.Fprintln(os.Stderr, "bench: -approx-guard:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "approx-guard: ok (speedup %.2fx, %s schema valid)\n", speedup, guardPath)
		return
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if outPath == "-" {
		os.Stdout.Write(enc)
		printTable(os.Stderr, rep)
		return
	}
	if err := os.WriteFile(outPath, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", outPath)
	printTable(os.Stdout, rep)
}

// checkReport validates a committed bench report against the schema this
// binary writes: unknown fields are rejected (schema drift), and the
// fields downstream tooling reads must be present and sane. Reports both
// with and without the approx block pass — the same validator covers
// BENCH_PR4/PR7 and BENCH_PR10 artifacts.
func checkReport(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep report
	if err := dec.Decode(&rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rep.Generator == "" || rep.GoVersion == "" {
		return fmt.Errorf("%s: missing generator/go_version provenance", path)
	}
	if rep.RMATScale <= 0 || rep.Vertices <= 0 || rep.Arcs <= 0 {
		return fmt.Errorf("%s: missing graph dimensions", path)
	}
	if len(rep.Results) == 0 {
		return fmt.Errorf("%s: no result rows", path)
	}
	for i, r := range rep.Results {
		// Layout is not required: PR-2-era reports predate the ablation
		// matrix and encode the configuration in the kernel name.
		if r.Kernel == "" || r.NsPerOp <= 0 || r.EdgesPerSec <= 0 {
			return fmt.Errorf("%s: results[%d] incomplete", path, i)
		}
	}
	if a := rep.Approx; a != nil {
		if a.Epsilon <= 0 || a.Epsilon >= 1 || a.Delta <= 0 || a.Delta >= 1 {
			return fmt.Errorf("%s: approx block has (eps,delta) outside (0,1)", path)
		}
		if a.SamplesUsed <= 0 || a.Rounds <= 0 {
			return fmt.Errorf("%s: approx block missing sampling counts", path)
		}
		if a.ExactNs <= 0 || a.ApproxNs <= 0 || a.SpeedupVsExact <= 0 {
			return fmt.Errorf("%s: approx block missing timings", path)
		}
		if got := float64(a.ExactNs) / float64(a.ApproxNs); got/a.SpeedupVsExact > 1.01 || a.SpeedupVsExact/got > 1.01 {
			return fmt.Errorf("%s: approx speedup %.2f inconsistent with timings (%.2f)", path, a.SpeedupVsExact, got)
		}
	}
	return nil
}
