package experiments

import (
	"math/rand"

	"graphct/internal/bc"
	"graphct/internal/cc"
	"graphct/internal/graph"
	"graphct/internal/rank"
	"graphct/internal/stats"
	"graphct/internal/temporal"
	"graphct/internal/tweets"
)

// The experiments in this file go beyond the paper's published tables:
// they implement the future-work directions its Section V raises — better
// sampling for disconnected graphs, approximation quality and confidence,
// and the robustness argument behind k-betweenness centrality.

// SamplingRow is one strategy's accuracy at the paper's hardest setting
// (10% sampling, full disconnected graph).
type SamplingRow struct {
	Strategy string
	Top1     float64 // overlap with exact top 1%
	Top5     float64
	Top10    float64
	Covered  float64 // fraction of vertices whose component holds a source
}

// SamplingStrategies compares uniform (the paper's unguided sampling)
// against stratified and degree-biased sampling on the full H1N1 graph —
// Section V conjectures unguided sampling "may miss components when the
// graph is not connected".
func SamplingStrategies(cfg Config) []SamplingRow {
	ug := harvest(tweets.H1N1Corpus(cfg.Scale, cfg.Seed))
	g := ug.Graph.Undirected()
	exact := bc.Exact(g)
	comps := cc.Components(g)
	samples := g.NumVertices() / 10
	if samples < 1 {
		samples = 1
	}
	w := cfg.out()
	fprintf(w, "Extra — sampling strategies at 10%% sources (%d of %d vertices, %d components)\n",
		samples, g.NumVertices(), comps.Count)
	fprintf(w, "%-14s %8s %8s %8s %10s\n", "strategy", "top1%", "top5%", "top10%", "coverage")
	strategies := []struct {
		name string
		s    bc.Sampling
	}{
		{"uniform", bc.SampleUniform},
		{"stratified", bc.SampleStratified},
		{"degree", bc.SampleDegreeBiased},
	}
	var rows []SamplingRow
	for _, st := range strategies {
		var t1, t5, t10, cov float64
		for r := 0; r < cfg.realizations(); r++ {
			res := bc.Centrality(g, bc.Options{Samples: samples, Seed: cfg.Seed + int64(r), Strategy: st.s})
			t1 += rank.TopAccuracy(exact.Scores, res.Scores, 0.01)
			t5 += rank.TopAccuracy(exact.Scores, res.Scores, 0.05)
			t10 += rank.TopAccuracy(exact.Scores, res.Scores, 0.10)
			hit := map[int32]bool{}
			for _, s := range res.Sources {
				hit[comps.Colors[s]] = true
			}
			var vertices int64
			for _, v := range comps.Colors {
				if hit[v] {
					vertices++
				}
			}
			cov += float64(vertices) / float64(g.NumVertices())
		}
		n := float64(cfg.realizations())
		row := SamplingRow{Strategy: st.name, Top1: t1 / n, Top5: t5 / n, Top10: t10 / n, Covered: cov / n}
		rows = append(rows, row)
		fprintf(w, "%-14s %8.3f %8.3f %8.3f %10.3f\n", row.Strategy, row.Top1, row.Top5, row.Top10, row.Covered)
	}
	return rows
}

// RobustnessRow reports one k level's rank stability under perturbation.
type RobustnessRow struct {
	K          int
	EdgeDrop   float64 // fraction of edges removed
	Top10      float64 // top-10% overlap original vs perturbed
	Spearman   float64 // whole-ranking correlation
	Components int     // components after perturbation
}

// KBCRobustness measures the motivation for k-betweenness centrality:
// "adding or removing a single edge may drastically alter many vertices'
// betweenness centrality scores", while paths within k of the shortest
// add robustness. Random edges are removed and the rankings' stability is
// compared across k in {0, 1, 2}.
func KBCRobustness(cfg Config) []RobustnessRow {
	ug := harvest(tweets.AtlFloodCorpus(cfg.Scale, cfg.Seed))
	lwcc, _ := cc.Largest(ug.Graph)
	g := lwcc.Undirected()
	const drop = 0.05
	w := cfg.out()
	fprintf(w, "Extra — k-betweenness rank robustness to %.0f%% edge removal (LWCC, %d vertices)\n",
		100*drop, g.NumVertices())
	fprintf(w, "%2s %10s %10s %12s\n", "k", "top10%", "spearman", "components")
	var rows []RobustnessRow
	for k := 0; k <= bc.MaxK; k++ {
		base := bc.Centrality(g, bc.Options{K: k})
		var t10, sp float64
		comps := 0
		for r := 0; r < cfg.realizations(); r++ {
			perturbed := removeRandomEdges(g, drop, cfg.Seed+int64(r))
			res := bc.Centrality(perturbed, bc.Options{K: k})
			t10 += rank.TopAccuracy(base.Scores, res.Scores, 0.10)
			sp += rank.Spearman(base.Scores, res.Scores)
			comps = cc.Components(perturbed).Count
		}
		n := float64(cfg.realizations())
		row := RobustnessRow{K: k, EdgeDrop: drop, Top10: t10 / n, Spearman: sp / n, Components: comps}
		rows = append(rows, row)
		fprintf(w, "%2d %10.3f %10.3f %12d\n", row.K, row.Top10, row.Spearman, row.Components)
	}
	return rows
}

// removeRandomEdges returns a copy of an undirected g with a fraction of
// edges dropped.
func removeRandomEdges(g *graph.Graph, frac float64, seed int64) *graph.Graph {
	if g.Directed() {
		g = g.Undirected()
	}
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(int32(v)) {
			if u >= int32(v) && rng.Float64() >= frac {
				edges = append(edges, graph.Edge{U: int32(v), V: u})
			}
		}
	}
	out, err := graph.FromEdges(g.NumVertices(), edges, graph.Options{KeepSelfLoops: true})
	if err != nil {
		panic("experiments: perturbation out of range: " + err.Error())
	}
	return out
}

// TemporalRow reports one week's window in the temporal analysis.
type TemporalRow struct {
	Week         int
	Tweets       int
	Users        int
	Interactions int64
	LWCCShare    float64
	Turnover     float64 // top-actor churn vs the previous window (0 for the first)
}

// Temporal runs the weekly-window analysis on the H1N1 stream — the
// paper's "ongoing work examines the data's temporal aspects": window
// sizes track the crisis volume curve, and the top-actor set churns only
// partially because broadcast hubs persist.
func Temporal(cfg Config) []TemporalRow {
	ts := tweets.FilterSpam(tweets.Generate(tweets.H1N1Corpus(cfg.Scale, cfg.Seed)), 0)
	snaps := temporal.Analyze(ts, temporal.Options{TopK: 10, Samples: 256, Seed: cfg.Seed})
	growth := temporal.Growth(snaps)
	churn := temporal.Turnover(snaps)
	w := cfg.out()
	fprintf(w, "Extra — temporal analysis of the H1N1 stream (weekly windows)\n")
	fprintf(w, "%6s %8s %8s %13s %10s %10s\n", "week", "tweets", "users", "interactions", "LWCC", "turnover")
	rows := make([]TemporalRow, len(growth))
	for i, g := range growth {
		row := TemporalRow{
			Week: g.Week, Tweets: g.Tweets, Users: g.Users,
			Interactions: g.Interactions, LWCCShare: g.LWCCShare,
		}
		if i > 0 {
			row.Turnover = churn[i-1]
		}
		rows[i] = row
		fprintf(w, "%6d %8d %8d %13d %9.0f%% %9.0f%%\n",
			row.Week, row.Tweets, row.Users, row.Interactions, 100*row.LWCCShare, 100*row.Turnover)
	}
	return rows
}

// ConfidenceRow reports approximate-BC variability at one sampling level.
type ConfidenceRow struct {
	Fraction    float64
	TopKJaccard float64 // pairwise top-25 set similarity across realizations
	TopCV       float64 // mean coefficient of variation of the top-25 scores
	StableTop   int     // vertices in the top 25 of every realization
}

// Confidence quantifies the paper's closing open problem — "quantifying
// significance and confidence of approximations over noisy graph data" —
// by running independent source draws at each sampling level of Fig. 4/5
// and measuring score and ranking stability on the H1N1 LWCC.
func Confidence(cfg Config) []ConfidenceRow {
	ug := harvest(tweets.H1N1Corpus(cfg.Scale, cfg.Seed))
	g, _ := cc.Largest(ug.Graph)
	const topK = 25
	w := cfg.out()
	fprintf(w, "Extra — approximate BC confidence over %d source draws (LWCC, %d vertices, top %d)\n",
		cfg.realizations(), g.NumVertices(), topK)
	fprintf(w, "%10s %12s %10s %12s\n", "sampling", "jaccard", "score-CV", "stable-top")
	var rows []ConfidenceRow
	for _, frac := range SamplingFractions[:3] { // 100% has no sampling noise
		samples := int(frac * float64(g.NumVertices()))
		if samples < 1 {
			samples = 1
		}
		c := estimateWithConfidence(g, bc.Options{Samples: samples, Seed: cfg.Seed},
			cfg.realizations(), topK)
		row := ConfidenceRow{
			Fraction:    frac,
			TopKJaccard: c.TopKJaccard,
			TopCV:       c.coefficientOfVariation(topK),
			StableTop:   len(c.TopKStable),
		}
		rows = append(rows, row)
		fprintf(w, "%9.0f%% %12.3f %10.3f %12d\n", 100*row.Fraction, row.TopKJaccard, row.TopCV, row.StableTop)
	}
	return rows
}

// DiameterRow reports the estimator at one sample count.
type DiameterRow struct {
	Sources  int
	Longest  int // longest sampled shortest path
	Estimate int // 4x rule
	Exact    int // true diameter
}

// DiameterQuality measures the load-time diameter estimator against the
// exact diameter on the #atlflood LWCC — quantifying the safety margin of
// the paper's "four times the longest path distance found" rule.
func DiameterQuality(cfg Config) []DiameterRow {
	ug := harvest(tweets.AtlFloodCorpus(cfg.Scale, cfg.Seed))
	lwcc, _ := cc.Largest(ug.Graph)
	g := lwcc.Undirected()
	exact := stats.ExactDiameter(g)
	w := cfg.out()
	fprintf(w, "Extra — diameter estimator quality (LWCC, %d vertices, exact diameter %d)\n",
		g.NumVertices(), exact)
	fprintf(w, "%10s %10s %10s %8s\n", "sources", "longest", "estimate", "exact")
	var rows []DiameterRow
	for _, samples := range []int{4, 16, 64, 256} {
		d := stats.EstimateDiameter(g, samples, 4, cfg.Seed)
		row := DiameterRow{Sources: d.Sources, Longest: d.LongestPath, Estimate: d.Estimate, Exact: exact}
		rows = append(rows, row)
		fprintf(w, "%10d %10d %10d %8d\n", row.Sources, row.Longest, row.Estimate, row.Exact)
	}
	return rows
}
