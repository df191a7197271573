package bc

import (
	"math/rand"
	"testing"
	"time"

	"graphct/internal/cc"
	"graphct/internal/gen"
	"graphct/internal/graph"
	"graphct/internal/tweets"
)

// benchComponents returns the largest components of the degree-ordered
// R-MAT 16 and of the Sept-1 ×0.1 mention graph.
func benchComponents(b *testing.B) (rmat16, sept *graph.Graph) {
	rmat, _, err := graph.Layout{Reorder: graph.ReorderDegree}.Apply(gen.RMAT(gen.PaperRMAT(16, 1)))
	if err != nil {
		b.Fatal(err)
	}
	rmat16, _ = cc.Largest(rmat)
	mentions := tweets.Build(tweets.FilterSpam(tweets.Generate(tweets.Sept1Corpus(0.1, 1)), 0))
	sept, _ = cc.Largest(mentions.Undirected())
	return rmat16, sept
}

// BenchmarkBrandesPhases times one k = 0 Brandes source phase by phase on
// the graphs the batch pipelines sweep: the largest component of the
// degree-ordered R-MAT 16, that of the Sept-1 ×0.1 mention graph unfolded,
// and that component's pendant-free core as planFold builds it (the graph
// batch_tweets_sept's sampled betweenness sweeps). Besides ns/op (a whole
// source) it reports ns per source for the forward sweep, the backward
// sweep and reset; up-ids/source, the vertex ids the bottom-up levels
// examine; and backward-arcs/arcs: the arcs the backward sweep reads over
// the arcs of the graph, which is what pulling over every reached row
// reads, so anything under 1 is arcs the pushed levels skip.
func BenchmarkBrandesPhases(b *testing.B) {
	rmat16, sept := benchComponents(b)
	f := planFold(sept, sampleSources(sept.NumVertices(), 0, 0))
	if f == nil {
		b.Fatal("fold declined on the tweet component")
	}
	for _, bg := range []struct {
		name string
		g    *graph.Graph
		pend []float64
	}{
		{"rmat16-lwcc", rmat16, nil},
		{"sept-lwcc", sept, nil},
		{"sept-core", f.core, f.pend},
	} {
		g := bg.g
		n := g.NumVertices()
		b.Run(bg.name, func(b *testing.B) {
			ws := newWorkspace(g, 0)
			ws.pend = bg.pend
			sink := scoreSink{local: make([]float64, n), scale: 1}
			rng := rand.New(rand.NewSource(1))
			var fwd, bwd, rst time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := int32(rng.Intn(n))
				t0 := time.Now()
				ws.forwardSweep(g, s)
				t1 := time.Now()
				backwardSweep(g, s, ws, sink)
				t2 := time.Now()
				ws.reset()
				fwd += t1.Sub(t0)
				bwd += t2.Sub(t1)
				rst += time.Since(t2)
			}
			per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(b.N) }
			b.ReportMetric(per(fwd), "fwd-ns/source")
			b.ReportMetric(per(bwd), "bwd-ns/source")
			b.ReportMetric(per(rst), "reset-ns/source")
			b.ReportMetric(float64(ws.upIDs)/float64(b.N), "up-ids/source")
			b.ReportMetric(float64(ws.backArcs)/float64(int64(b.N)*g.NumArcs()), "backward-arcs/arcs")
		})
	}
}

// BenchmarkPairSamples times the adaptive estimator's per-sample step, one
// bidirectional search per op on one worker, on the same two components.
// It reports ns/sample and levels/sample, the levels both sides expanded.
func BenchmarkPairSamples(b *testing.B) {
	rmat16, sept := benchComponents(b)
	for _, bg := range []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat16-lwcc", rmat16},
		{"sept-lwcc", sept},
	} {
		b.Run(bg.name, func(b *testing.B) {
			est := newAdaptiveEstimator(bg.g, ApproxOptions{Seed: 1, Concurrency: 1}, DefaultEpsilon, DefaultDelta)
			ws := est.ws[0]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est.samplePair(ws, int64(i))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sample")
			b.ReportMetric(float64(ws.levels)/float64(b.N), "levels/sample")
		})
	}
}
