package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"graphct/internal/bc"
	"graphct/internal/cc"
	"graphct/internal/core"
	"graphct/internal/dimacs"
	"graphct/internal/gen"
	"graphct/internal/graph"
	"graphct/internal/rank"
	"graphct/internal/tweets"
)

// batchInput is what set-up generates from the seed: an R-MAT edge list
// for batch_rmat16, a tweet stream for batch_tweets_sept.
type batchInput struct {
	n      int
	edges  []graph.Edge
	tweets []tweets.Tweet
}

// repState is what one pipeline repetition leaves behind for the checks
// and the single-threaded baseline that follow the window.
type repState struct {
	full       *graph.Graph // the built graph, before component extraction
	lwcc       *graph.Graph
	components int
	sampled    *bc.Result
	adaptive   bc.Guarantee
	inputEdges float64 // edges the build step consumed
	buildS     float64
	reads      []float64 // seconds of each cheap read (components, degrees, every BFS)
	dimacsMB   float64   // size of the DIMACS text the round trip wrote
	wallS      float64
}

func (b *bench) batchSetup(root int) batchInput {
	var in batchInput
	for i, start := 0, time.Now(); b.moreSetup(i, start); i++ {
		b.group(root, "setup", fmt.Sprintf("setup-%d", i), func(sp int) {
			if b.workload == wlBatchTweets {
				b.timed(sp, "tweets.generate", "", func() {
					in.tweets = tweets.Generate(tweets.Sept1Corpus(b.sz.tweetScale, b.seed))
				})
				return
			}
			b.timed(sp, "gen.rmat_edges", "", func() {
				in.n = 1 << b.sz.rmatScale
				in.edges = gen.RMATEdges(gen.PaperRMAT(b.sz.rmatScale, b.seed))
			})
		})
	}
	return in
}

// batchRep runs the pipeline once. Both batch workloads share it from the
// component census on; only the step that turns the generated input into
// a graph differs (edge list: FromEdges + degree reorder; tweets: spam
// filter + mention-graph build + undirected projection).
func (b *bench) batchRep(root int, in batchInput, req string) repState {
	var st repState
	var edges []graph.Edge
	if in.edges != nil {
		edges = append(edges, in.edges...) // FromEdges may reorder its input
	}
	sp := b.tr.open(root, "pipeline", req)
	defer b.tr.close(sp)
	start := time.Now()

	opts := []core.Option{core.WithSeed(b.seed), core.WithDiameterSampling(b.sz.diamSources, 4)}
	var tk *core.Toolkit
	var ug *tweets.UserGraph
	if in.tweets != nil {
		var clean []tweets.Tweet
		d := b.timed(sp, "tweets.filter_spam", req, func() { clean = tweets.FilterSpam(in.tweets, 0) })
		d += b.timed(sp, "tweets.build", req, func() { ug = tweets.Build(clean) })
		st.buildS, st.inputEdges = d.Seconds(), float64(ug.Stats.UniqueInteractions)
		tk = core.New(ug.Graph, opts...)
		b.timed(sp, "graph.undirected", req, func() { tk.ToUndirected() })
	} else {
		var g *graph.Graph
		var err error
		d := b.timed(sp, "graph.from_edges", req, func() { g, err = graph.FromEdges(in.n, edges, graph.Options{}) })
		b.check(err == nil, "graph.FromEdges: %v", err)
		if err != nil {
			return st
		}
		st.buildS, st.inputEdges = d.Seconds(), float64(len(edges))
		tk = core.New(g, opts...)
		b.timed(sp, "graph.reorder_degree", req, func() { err = tk.Reorder(graph.ReorderDegree) })
		b.check(err == nil, "Toolkit.Reorder: %v", err)
	}
	st.full = tk.Graph()

	var comps *cc.Result
	d := b.timed(sp, "cc.components", req, func() { comps = tk.Components() })
	st.reads = append(st.reads, d.Seconds())
	st.components = comps.Count
	var covered int64
	for _, c := range comps.Census() {
		covered += c.Size
	}
	b.check(covered == int64(st.full.NumVertices()), "component sizes sum to %d, graph has %d vertices", covered, st.full.NumVertices())

	var err error
	b.timed(sp, "graph.extract", req, func() { err = tk.ExtractComponent(1) })
	b.check(err == nil, "ExtractComponent(1): %v", err)
	st.lwcc = tk.Graph()

	d = b.timed(sp, "stats.degrees", req, func() { tk.DegreeStats() })
	st.reads = append(st.reads, d.Seconds())
	b.timed(sp, "kcore.decompose", req, func() { tk.CoreNumbers() })
	b.timed(sp, "cluster.coefficients", req, func() { tk.ClusteringCoefficients() })
	b.timed(sp, "stats.diameter", req, func() { tk.Diameter() })

	rng := rand.New(rand.NewSource(b.seed))
	for i := 0; i < b.sz.bfsCount; i++ {
		src := int32(rng.Intn(st.lwcc.NumVertices()))
		d := b.timed(sp, "bfs.search", req, func() { tk.BFS(src, -1) })
		st.reads = append(st.reads, d.Seconds())
	}

	b.timed(sp, "bc.sampled", req, func() { st.sampled = tk.KCentrality(0, b.sz.bcSamples) })
	b.timed(sp, "rank.top", req, func() {
		top := rank.Top(st.sampled.Scores, 20)
		if ug != nil {
			for i, v := range top {
				top[i] = tk.OrigID(v)
			}
			ug.Handles(top)
		}
	})
	if ug == nil {
		// On the hub-and-tree tweet graph the adaptive rule never fires
		// before its worst-case sample cap, which would make this one step
		// two thirds of that pipeline; the paper's tweet pipeline has no
		// k=1 or approximate step either.
		b.timed(sp, "bc.k1", req, func() { tk.KCentrality(1, b.sz.k1Samples) })
		b.timed(sp, "bc.adaptive", req, func() { st.adaptive = tk.ApproxCentrality(0.01, 0.1, 0).Guarantee })
		b.check(st.adaptive.Stopped && st.adaptive.Epsilon <= 0.01,
			"adaptive BC guarantee %+v: want Stopped with epsilon <= 0.01", st.adaptive)
	}

	var buf bytes.Buffer
	b.timed(sp, "dimacs.write", req, func() { err = dimacs.Write(&buf, st.lwcc) })
	b.check(err == nil, "dimacs.Write: %v", err)
	var back *graph.Graph
	b.timed(sp, "dimacs.parse", req, func() { back, err = dimacs.ParseBytes(buf.Bytes(), dimacs.ParseOptions{}) })
	b.check(err == nil && back.NumVertices() == st.lwcc.NumVertices() && back.NumEdges() == st.lwcc.NumEdges(),
		"DIMACS round trip changed the graph (err %v)", err)
	st.dimacsMB = float64(buf.Len()) / 1e6

	st.wallS = time.Since(start).Seconds()
	return st
}

func runBatch(ctx context.Context, b *bench) (map[string]float64, error) {
	root := b.tr.open(0, "workload."+b.workload, "")
	defer b.tr.close(root)

	in := b.batchSetup(root)
	m := map[string]float64{"setup_s": b.med("setup")}
	b.putMedians(m, map[string]string{"gen.rmat_edges": "gen.rmat_edges_s", "tweets.generate": "tweets.generate_s"})

	b.batchRep(root, in, "warmup")
	b.mu.Lock()
	b.samples = make(map[string][]float64) // the warm-up's timings do not count
	b.mu.Unlock()

	// Timed repetitions fill the window. A traced run switches the tracer
	// off on every other repetition, which gives the tracing overhead from
	// one process.
	var last repState
	var walls, wallsUntraced, reads, buildRates []float64
	stop := time.Now().Add(b.window)
	for i := 0; i < b.sz.minReps || time.Now().Before(stop); i++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%s: %w", b.workload, err)
		}
		untraced := b.tr != nil && i%2 == 1
		if b.tr != nil {
			b.tr.on.Store(!untraced)
		}
		last = b.batchRep(root, in, fmt.Sprintf("rep-%d", i))
		if last.lwcc == nil {
			return nil, fmt.Errorf("%s: pipeline failed: %v", b.workload, b.failures)
		}
		if untraced {
			wallsUntraced = append(wallsUntraced, last.wallS)
		} else {
			walls = append(walls, last.wallS)
		}
		reads = append(reads, last.reads...)
		buildRates = append(buildRates, last.inputEdges/last.buildS)
	}
	if b.tr != nil {
		b.tr.on.Store(true)
	}

	m["solution_s"] = median(append(walls, wallsUntraced...))
	m["build_edges_per_s"] = median(buildRates)
	m["read_rps"] = ratio(float64(len(reads)), sum(reads))
	m["read_p50_ms"] = median(reads) * 1e3
	m["load.read_p99_ms"] = tail(reads) * 1e3
	m["trace.overhead_share"] = 0
	if len(wallsUntraced) > 0 {
		m["trace.overhead_share"] = median(walls)/median(wallsUntraced) - 1
	}

	arcs := float64(last.lwcc.NumArcs())
	b.putMedians(m, map[string]string{
		"tweets.filter_spam": "tweets.filter_spam_s", "tweets.build": "tweets.build_s",
		"graph.from_edges": "graph.from_edges_s", "graph.reorder_degree": "graph.reorder_degree_s",
		"graph.undirected": "graph.undirected_s", "graph.extract": "graph.extract_s",
		"dimacs.write": "dimacs.write_s", "dimacs.parse": "dimacs.parse_s",
		"cc.components": "cc.components_s", "stats.degrees": "stats.degrees_s",
		"stats.diameter": "stats.diameter_s", "cluster.coefficients": "cluster.coefficients_s",
		"kcore.decompose": "kcore.decompose_s", "rank.top": "rank.top_s",
		"bc.sampled": "bc.sampled_s", "bc.k1": "bc.k1_s", "bc.adaptive": "bc.adaptive_s",
	})
	if in.tweets != nil {
		m["tweets.tweets_per_s"] = ratio(float64(len(in.tweets)), m["tweets.filter_spam_s"]+m["tweets.build_s"])
	} else {
		m["bc.adaptive_samples"] = float64(last.adaptive.SamplesUsed)
		m["bc.adaptive_rounds"] = float64(last.adaptive.Rounds)
	}
	m["graph.csr_bytes"] = float64(last.full.MemoryFootprint()) // computed from array sizes
	m["dimacs.parse_mb_per_s"] = ratio(last.dimacsMB, m["dimacs.parse_s"])
	m["cc.component_count"] = float64(last.components)
	m["bfs.search_p50_ms"] = b.med("bfs.search") * 1e3
	m["bfs.teps"] = ratio(arcs, b.med("bfs.search"))
	m["bc_teps"] = ratio(float64(len(last.sampled.Sources))*arcs, m["bc.sampled_s"])

	b.singleThreaded(root, last, m)
	return m, nil
}

// singleThreaded is the plain one-thread run of the same problem: the
// base of the parallel efficiency, and the reference the parallel
// component count and BC scores must agree with.
func (b *bench) singleThreaded(root int, last repState, m map[string]float64) {
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	sp := b.tr.open(root, "single_threaded", "t1")
	defer b.tr.close(sp)

	count := cc.Components(last.full).Count
	b.check(count == last.components, "component count %d at %d threads, %d at one", last.components, procs, count)

	reps := 1
	if b.tr != nil {
		reps = b.sz.t1Reps
	}
	var ref *bc.Result
	for i := 0; i < reps; i++ {
		b.timed(sp, "bc.sampled_t1", "t1", func() {
			ref = core.New(last.lwcc, core.WithSeed(b.seed)).KCentrality(0, b.sz.bcSamples)
		})
	}
	worst := 0.0
	for v, want := range ref.Scores {
		worst = math.Max(worst, math.Abs(last.sampled.Scores[v]-want)/math.Max(math.Abs(want), 1))
	}
	b.check(worst <= 1e-9, "BC scores at %d threads differ from one thread by %.3g relative", procs, worst)

	m["bc.sampled_t1_s"] = b.med("bc.sampled_t1")
	m["par.bc_parallel_eff"] = ratio(m["bc.sampled_t1_s"], float64(procs)*m["bc.sampled_s"])
}
