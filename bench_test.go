// Package graphct_test benches every table and figure of the paper's
// evaluation plus the ablations DESIGN.md calls out. Each benchmark runs a
// reduced-size instance of the corresponding experiment so the whole suite
// finishes quickly; cmd/experiments runs the full-size reproductions.
package graphct_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"graphct/internal/bc"
	"graphct/internal/cc"
	"graphct/internal/experiments"
	"graphct/internal/gen"
	"graphct/internal/graph"
	"graphct/internal/rank"
	"graphct/internal/server"
	"graphct/internal/stats"
	"graphct/internal/stream"
	"graphct/internal/tweets"
)

func benchCfg() experiments.Config {
	return experiments.Config{
		Scale:        0.05,
		SeptScale:    0.003,
		Realizations: 1,
		Seed:         1,
		RMATScales:   []int{8},
	}
}

// BenchmarkTable2Volume regenerates Table II's weekly article counts.
func BenchmarkTable2Volume(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Table2(cfg)
	}
}

// BenchmarkTable3Graphs builds the three tweet graphs and their LWCCs.
func BenchmarkTable3Graphs(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Table3(cfg)
	}
}

// BenchmarkTable4Ranking ranks the top 15 actors by exact BC.
func BenchmarkTable4Ranking(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Table4(cfg)
	}
}

// BenchmarkFig2Degree measures the degree-distribution analysis.
func BenchmarkFig2Degree(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Fig2(cfg)
	}
}

// BenchmarkFig3Subcommunity measures the reciprocal-mention filter.
func BenchmarkFig3Subcommunity(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		experiments.Fig3(cfg)
	}
}

// BenchmarkFig4Sampling measures approximate BC at the paper's sampling
// levels on one tweet graph (the figure's x-axis).
func BenchmarkFig4Sampling(b *testing.B) {
	ug := tweets.Build(tweets.Generate(tweets.H1N1Corpus(0.1, 1)))
	g, _ := cc.Largest(ug.Graph)
	for _, pct := range []int{10, 25, 50, 100} {
		pct := pct
		b.Run(benchName("sample", pct), func(b *testing.B) {
			sources := g.NumVertices() * pct / 100
			if sources < 1 {
				sources = 1
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.Centrality(g, bc.Options{Samples: sources, Seed: int64(i)})
			}
		})
	}
}

// BenchmarkFig5Accuracy measures the exact-vs-approximate overlap
// computation.
func BenchmarkFig5Accuracy(b *testing.B) {
	ug := tweets.Build(tweets.Generate(tweets.AtlFloodCorpus(0.5, 1)))
	g, _ := cc.Largest(ug.Graph)
	exact := bc.Exact(g)
	approx := bc.Approx(g, g.NumVertices()/10+1, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tf := range experiments.TopFractions {
			rank.TopAccuracy(exact.Scores, approx.Scores, tf)
		}
	}
}

// BenchmarkFig6Scaling measures 256-source BC across R-MAT scales, the
// figure's time-vs-size series.
func BenchmarkFig6Scaling(b *testing.B) {
	for _, scale := range []int{10, 12, 14} {
		g := gen.RMAT(gen.PaperRMAT(scale, 1))
		b.Run(benchName("scale", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.Centrality(g, bc.Options{Samples: 256, Seed: int64(i)})
			}
		})
	}
}

// BenchmarkCentrality is the kernel acceptance benchmark tracked in
// BENCH_PR2.json: sampled betweenness centrality on the paper's R-MAT
// generator at scale 16 (65k vertices, ~1M distinct edges) with a fixed
// seed. edges/s counts NumArcs() once per source per iteration — the
// traversal-throughput convention cmd/bench uses for the perf trajectory,
// so numbers here are comparable across PRs.
func BenchmarkCentrality(b *testing.B) {
	g := gen.RMAT(gen.PaperRMAT(16, 1))
	const samples = 32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc.Centrality(g, bc.Options{Samples: samples, Seed: 1})
	}
	edges := float64(g.NumArcs()) * samples * float64(b.N)
	b.ReportMetric(edges/b.Elapsed().Seconds(), "edges/s")
}

// Ablation: deduplicated adjacency (the paper discards duplicate
// interactions) vs raw multigraph traversal cost.
func BenchmarkAblationDedup(b *testing.B) {
	edges := gen.RMATEdges(gen.PaperRMAT(12, 1))
	n := 1 << 12
	for _, keep := range []bool{false, true} {
		name := "dedup"
		if keep {
			name = "multigraph"
		}
		b.Run(name, func(b *testing.B) {
			g, err := graph.FromEdges(n, append([]graph.Edge(nil), edges...),
				graph.Options{KeepDuplicates: keep})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cc.Components(g)
				stats.Degrees(g)
			}
		})
	}
}

// Ablation: k-betweenness cost growth in k.
func BenchmarkKBetweenness(b *testing.B) {
	g := gen.PreferentialAttachment(2000, 3, 1)
	for k := 0; k <= bc.MaxK; k++ {
		k := k
		b.Run(benchName("k", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.Centrality(g, bc.Options{K: k, Samples: 64, Seed: 1})
			}
		})
	}
}

// Ablation: source-sampling strategies at 10% sources on the full
// (disconnected) mention graph.
func BenchmarkAblationSampling(b *testing.B) {
	ug := tweets.Build(tweets.Generate(tweets.H1N1Corpus(0.1, 1)))
	g := ug.Graph.Undirected()
	samples := g.NumVertices() / 10
	for _, st := range []struct {
		name string
		s    bc.Sampling
	}{{"uniform", bc.SampleUniform}, {"stratified", bc.SampleStratified}, {"degree", bc.SampleDegreeBiased}} {
		st := st
		b.Run(st.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.Centrality(g, bc.Options{Samples: samples, Seed: int64(i), Strategy: st.s})
			}
		})
	}
}

// Directed-flow betweenness on a follower network (paper future work).
func BenchmarkDirectedBCFollower(b *testing.B) {
	g := gen.Follower(gen.DefaultFollower(4000, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bc.DirectedCentrality(g, bc.Options{Samples: 128, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// Substrate micro-benches: ingest and traversal throughput.
func BenchmarkIngestRMAT14(b *testing.B) {
	edges := gen.RMATEdges(gen.PaperRMAT(14, 1))
	n := 1 << 14
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.FromEdges(n, append([]graph.Edge(nil), edges...), graph.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiameterEstimate(b *testing.B) {
	g := gen.RMAT(gen.PaperRMAT(13, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.EstimateDiameter(g, 256, 4, int64(i))
	}
}

// BenchmarkServerThroughput measures the graphctd serving path against
// an in-process HTTP server: "cold" requests vary their parameters so
// every one executes a kernel, "warm" requests repeat one key so all but
// the first are LRU cache hits. The gap is the serving-path baseline
// later PRs must beat.
func BenchmarkServerThroughput(b *testing.B) {
	g := gen.PreferentialAttachment(2000, 3, 1)
	n := g.NumVertices()
	reg := server.NewRegistry()
	reg.Add("g", g)
	ts := httptest.NewServer(server.New(reg, server.Config{MaxQueued: 1 << 16}))
	defer ts.Close()
	client := ts.Client()
	fetch := func(b *testing.B, url string) {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d for %s", resp.StatusCode, url)
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// src and depth combine into a never-repeating cache key.
			fetch(b, fmt.Sprintf("%s/graphs/g/bfs?src=%d&depth=%d", ts.URL, i%n, 2+i/n))
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
	b.Run("warm", func(b *testing.B) {
		url := ts.URL + "/graphs/g/components"
		fetch(b, url) // fill the cache outside the timed region
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fetch(b, url)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
}

// BenchmarkLiveIngest measures the live-update pipeline: "apply" is the
// raw sharded batch-apply rate with incremental triangle maintenance
// (edges/s = effective mutations per second), "snapshot" is the epoch
// materialization latency with the steady-state dirty fraction one batch
// leaves behind, and "http" is the end-to-end ingest endpoint including
// the binary decode, admission and epoch publishing.
func BenchmarkLiveIngest(b *testing.B) {
	const n = 1 << 14
	const batchSize = 1 << 10
	mkBatches := func(count int) [][]stream.Update {
		rng := rand.New(rand.NewSource(7))
		out := make([][]stream.Update, count)
		for i := range out {
			batch := make([]stream.Update, batchSize)
			for j := range batch {
				batch[j] = stream.Update{
					U:    int32(rng.Intn(n)),
					V:    int32(rng.Intn(n)),
					Time: int64(i*batchSize + j),
					Del:  rng.Intn(8) == 0,
				}
			}
			out[i] = batch
		}
		return out
	}

	b.Run("apply", func(b *testing.B) {
		batches := mkBatches(64)
		s := stream.New(n)
		var applied int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := s.ApplyBatch(batches[i%len(batches)])
			if err != nil {
				b.Fatal(err)
			}
			applied += int64(res.Inserted + res.Deleted)
		}
		b.ReportMetric(float64(applied)/b.Elapsed().Seconds(), "edges/s")
	})

	b.Run("snapshot", func(b *testing.B) {
		batches := mkBatches(64)
		s := stream.New(n)
		for _, batch := range batches {
			if _, err := s.ApplyBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
		s.Snapshot() // steady state: each iteration re-dirties one batch
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if _, err := s.ApplyBatch(batches[i%len(batches)]); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			s.Snapshot()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/snapshot")
	})

	b.Run("http", func(b *testing.B) {
		batches := mkBatches(64)
		frames := make([][]byte, len(batches))
		for i, batch := range batches {
			var buf bytes.Buffer
			if err := stream.EncodeUpdates(&buf, batch); err != nil {
				b.Fatal(err)
			}
			frames[i] = buf.Bytes()
		}
		reg := server.NewRegistry()
		if _, err := reg.AddLive("live", n); err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(server.New(reg, server.Config{
			IngestQueued: 1 << 16, SnapshotEvery: 16 * batchSize,
		}))
		defer ts.Close()
		client := ts.Client()
		var applied int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := client.Post(ts.URL+"/graphs/live/ingest",
				stream.WireContentType, bytes.NewReader(frames[i%len(frames)]))
			if err != nil {
				b.Fatal(err)
			}
			var res struct{ Inserted, Deleted int }
			if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
				b.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Fatalf("status %d", resp.StatusCode)
			}
			applied += int64(res.Inserted + res.Deleted)
		}
		b.ReportMetric(float64(applied)/b.Elapsed().Seconds(), "edges/s")
		b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "updates/s")
	})
}

func benchName(prefix string, v int) string {
	const digits = "0123456789"
	if v == 0 {
		return prefix + "-0"
	}
	var buf []byte
	for v > 0 {
		buf = append([]byte{digits[v%10]}, buf...)
		v /= 10
	}
	return prefix + "-" + string(buf)
}
