package bfs

import (
	"math/rand"
	"testing"

	"graphct/internal/cc"
	"graphct/internal/gen"
	"graphct/internal/graph"
	"graphct/internal/tweets"
)

var benchSink int

// BenchmarkBFS times the engine on the three graphs the repository's
// benchmark searches: the served scale-14 R-MAT under a degree reorder,
// the batch scale-16 R-MAT, and the largest component of the September
// mention graph (hub-and-tree, dozens of small levels). Besides ns/op and
// allocs/op it reports arcs-examined/arcs, the count that explains the
// timing and repeats exactly: top-down alone reads every arc of the
// component once, so anything under 1 is arcs the bottom-up steps skipped.
func BenchmarkBFS(b *testing.B) {
	rmat14, _, err := graph.Layout{Reorder: graph.ReorderDegree}.Apply(gen.RMAT(gen.PaperRMAT(14, 1)))
	if err != nil {
		b.Fatal(err)
	}
	mentions := tweets.Build(tweets.FilterSpam(tweets.Generate(tweets.Sept1Corpus(0.1, 1)), 0))
	sept, _ := cc.Largest(mentions.Undirected())
	for _, bg := range []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat14-degree", rmat14},
		{"rmat16", gen.RMAT(gen.PaperRMAT(16, 1))},
		{"sept-lwcc", sept},
	} {
		g := bg.g
		rng := rand.New(rand.NewSource(1))
		srcs := make([]int32, 64)
		var examined int64
		ws := new(workspace)
		for i := range srcs {
			srcs[i] = int32(rng.Intn(g.NumVertices()))
			ws.summarize(g, srcs[i], -1, 1)
			examined += ws.examined
		}
		share := float64(examined) / float64(int64(len(srcs))*g.NumArcs())
		b.Run(bg.name+"/search", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += Search(g, srcs[i%len(srcs)]).Depth
			}
			b.ReportMetric(share, "arcs-examined/arcs")
		})
		b.Run(bg.name+"/summarize", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += Summarize(g, srcs[i%len(srcs)], -1).Depth
			}
			b.ReportMetric(share, "arcs-examined/arcs")
		})
	}
}
