package experiments

import (
	"math"
	"math/rand"
	"sort"

	"graphct/internal/bc"
	"graphct/internal/graph"
)

// confidenceResult quantifies the run-to-run variability of sampled
// betweenness centrality — the paper's closing open problem:
// "quantifying significance and confidence of approximations over noisy
// graph data". Scores are estimated over independent source draws
// (realizations); per-vertex means and standard deviations summarize
// score stability, and the top-k sets' pairwise Jaccard similarity
// summarizes ranking stability.
type confidenceResult struct {
	Mean         []float64 // per-vertex mean sampled score
	Std          []float64 // per-vertex standard deviation across realizations
	Realizations int
	TopKJaccard  float64 // mean pairwise Jaccard similarity of top-k sets
	TopKStable   []int32 // vertices in the top k of every realization
}

// estimateWithConfidence runs `realizations` independent sampled-BC
// estimates (each with its own source draw) and aggregates them. topK
// controls the ranking-stability statistics; realizations < 2 is raised
// to 2.
func estimateWithConfidence(g *graph.Graph, opt bc.Options, realizations, topK int) *confidenceResult {
	if realizations < 2 {
		realizations = 2
	}
	n := g.NumVertices()
	if topK > n {
		topK = n
	}
	mean := make([]float64, n)
	m2 := make([]float64, n) // Welford accumulator
	tops := make([][]int32, realizations)
	// Realization seeds come from one stream seeded with opt.Seed: an
	// additive offset (seed + r) would let realizations of nearby base
	// seeds alias each other's source draws.
	seeds := rand.New(rand.NewSource(opt.Seed))
	for r := 0; r < realizations; r++ {
		runOpt := opt
		runOpt.Seed = seeds.Int63()
		res := bc.Centrality(g, runOpt)
		for v, s := range res.Scores {
			delta := s - mean[v]
			mean[v] += delta / float64(r+1)
			m2[v] += delta * (s - mean[v])
		}
		tops[r] = res.TopK(topK)
	}
	std := make([]float64, n)
	for v := range std {
		std[v] = math.Sqrt(m2[v] / float64(realizations-1))
	}
	return &confidenceResult{
		Mean:         mean,
		Std:          std,
		Realizations: realizations,
		TopKJaccard:  meanPairwiseJaccard(tops),
		TopKStable:   intersectAll(tops),
	}
}

// coefficientOfVariation returns std/mean for the top `k` vertices by
// mean score — a compact "how trustworthy are the headline ranks"
// statistic. Vertices with zero mean are skipped.
func (c *confidenceResult) coefficientOfVariation(k int) float64 {
	idx := make([]int32, len(c.Mean))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		if c.Mean[idx[a]] != c.Mean[idx[b]] {
			return c.Mean[idx[a]] > c.Mean[idx[b]]
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	var sum float64
	used := 0
	for _, v := range idx[:k] {
		if c.Mean[v] > 0 {
			sum += c.Std[v] / c.Mean[v]
			used++
		}
	}
	if used == 0 {
		return 0
	}
	return sum / float64(used)
}

func meanPairwiseJaccard(sets [][]int32) float64 {
	if len(sets) < 2 {
		return 1
	}
	var sum float64
	pairs := 0
	for i := 0; i < len(sets); i++ {
		for j := i + 1; j < len(sets); j++ {
			sum += jaccard(sets[i], sets[j])
			pairs++
		}
	}
	return sum / float64(pairs)
}

func jaccard(a, b []int32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inA := make(map[int32]bool, len(a))
	for _, v := range a {
		inA[v] = true
	}
	inter := 0
	for _, v := range b {
		if inA[v] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

func intersectAll(sets [][]int32) []int32 {
	if len(sets) == 0 {
		return nil
	}
	count := make(map[int32]int)
	for _, set := range sets {
		for _, v := range set {
			count[v]++
		}
	}
	var out []int32
	for v, c := range count {
		if c == len(sets) {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
