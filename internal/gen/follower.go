package gen

import (
	"math/rand"

	"graphct/internal/graph"
	"graphct/internal/par"
)

// FollowerParams configures the directed follower-network generator, a
// stand-in for the Kwak et al. Twitter follower graph the paper
// benchmarks (61.6 M vertices, 1.47 B edges): heavy-tailed in-degree
// (celebrities), light-tailed out-degree (individual attention budgets),
// and low reciprocity — Kwak et al. report ~22% of links reciprocated.
type FollowerParams struct {
	Vertices    int
	AvgOut      int     // mean follows per user
	Reciprocity float64 // probability a follow is returned
	Exponent    float64 // Zipf exponent for followee popularity (> 1)
	Seed        int64
}

// DefaultFollower returns parameters shaped like the Kwak measurements at
// a configurable vertex count.
func DefaultFollower(n int, seed int64) FollowerParams {
	return FollowerParams{Vertices: n, AvgOut: 24, Reciprocity: 0.22, Exponent: 1.7, Seed: seed}
}

// Follower generates the directed follower graph. Arc u->v means "u
// follows v"; v's in-degree follows the Zipf popularity.
func Follower(p FollowerParams) *graph.Graph {
	if p.Vertices < 2 {
		p.Vertices = 2
	}
	if p.AvgOut < 1 {
		p.AvgOut = 1
	}
	if p.Exponent <= 1 {
		p.Exponent = 1.5
	}
	n := p.Vertices
	const block = 1 << 10
	blocks := (n + block - 1) / block
	buckets := make([][]graph.Edge, blocks)
	par.For(blocks, func(b int) {
		rng := rand.New(rand.NewSource(p.Seed ^ int64(b)*0x5851F42D4C957F2D))
		zipf := rand.NewZipf(rng, p.Exponent, 1, uint64(n-1))
		lo, hi := b*block, (b+1)*block
		if hi > n {
			hi = n
		}
		var out []graph.Edge
		seen := make(map[int32]struct{}, 2*p.AvgOut)
		for u := lo; u < hi; u++ {
			// Out-degree ~ uniform around AvgOut; followees are distinct
			// so the reciprocity knob is not inflated by the dedup of
			// repeated follows onto the same celebrity.
			follows := 1 + rng.Intn(2*p.AvgOut-1)
			clear(seen)
			for attempts := 0; len(seen) < follows && attempts < 4*follows; attempts++ {
				v := int32(zipf.Uint64())
				if v == int32(u) {
					continue
				}
				if _, dup := seen[v]; dup {
					continue
				}
				seen[v] = struct{}{}
				out = append(out, graph.Edge{U: int32(u), V: v})
				if rng.Float64() < p.Reciprocity {
					out = append(out, graph.Edge{U: v, V: int32(u)})
				}
			}
		}
		buckets[b] = out
	})
	var edges []graph.Edge
	for _, b := range buckets {
		edges = append(edges, b...)
	}
	g, err := graph.FromEdges(n, edges, graph.Options{Directed: true})
	if err != nil {
		panic("gen: follower out of range: " + err.Error())
	}
	return g
}
