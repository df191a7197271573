package cluster

import (
	"testing"

	"graphct/internal/cc"
	"graphct/internal/gen"
	"graphct/internal/graph"
	"graphct/internal/tweets"
)

var benchSink float64

// BenchmarkTriangles times the two entry points on the three graphs the
// pipeline feeds the kernel: the served R-MAT 14 under degree order (the
// /clustering request), and the largest components of the degree-ordered
// R-MAT 16 and of the Sept-1 mention graph (the batch pipelines' per-vertex
// coefficients). The mention graph is a few hundred broadcast hubs over
// shallow trees, where almost every arc touches a hub.
func BenchmarkTriangles(b *testing.B) {
	rmat := func(scale int) *graph.Graph {
		g, _, err := graph.Layout{Reorder: graph.ReorderDegree}.Apply(gen.RMAT(gen.PaperRMAT(scale, 1)))
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	rmat16, _ := cc.Largest(rmat(16))
	mentions := tweets.Build(tweets.FilterSpam(tweets.Generate(tweets.Sept1Corpus(0.1, 1)), 0))
	sept, _ := cc.Largest(mentions.Undirected())
	for _, bg := range []struct {
		name string
		g    *graph.Graph
	}{
		{"rmat14-degree", rmat(14)},
		{"rmat16-lwcc", rmat16},
		{"sept-lwcc", sept},
	} {
		g := bg.g
		b.Run(bg.name+"/coefficients", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += Coefficients(g)[0]
			}
		})
		b.Run(bg.name+"/global", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += Global(g)
			}
		})
	}
}
