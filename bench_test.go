// Package graphct_test benches every table and figure of the paper's
// evaluation plus the ablations DESIGN.md calls out. Each benchmark runs a
// reduced-size instance of the corresponding experiment so the whole suite
// finishes quickly; cmd/experiments runs the full-size reproductions.
package graphct_test

import (
	"testing"

	"graphct/internal/bc"
	"graphct/internal/cc"
	"graphct/internal/experiments"
	"graphct/internal/gen"
	"graphct/internal/graph"
	"graphct/internal/rank"
	"graphct/internal/stats"
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

func BenchmarkDiameterEstimate(b *testing.B) {
	g := gen.RMAT(gen.PaperRMAT(13, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.EstimateDiameter(g, 256, 4, int64(i))
	}
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
