// Package stats provides GraphCT's statistical characterization kernels:
// degree distributions and their summaries, histograms for the power-law
// analyses, a maximum-likelihood power-law exponent fit, and the sampled
// BFS diameter estimator every traversal kernel sizes its queues from.
package stats

import (
	"context"
	"math"
	"math/rand"
	"sort"

	"graphct/internal/bfs"
	"graphct/internal/graph"
	"graphct/internal/par"
)

// DegreeStats summarizes a degree distribution as the paper's "degree
// statistics ... summarized by their mean and variance".
type DegreeStats struct {
	N        int
	Min, Max int
	Mean     float64
	Variance float64 // population variance
}

// Degrees computes the degree statistics of g in parallel.
func Degrees(g *graph.Graph) DegreeStats {
	n := g.NumVertices()
	if n == 0 {
		return DegreeStats{}
	}
	sum := par.ReduceSum(n, func(v int) int64 { return int64(g.Degree(int32(v))) })
	sumSq := par.ReduceSum(n, func(v int) float64 {
		d := float64(g.Degree(int32(v)))
		return d * d
	})
	min := par.ReduceMin(n, func(v int) int64 { return int64(g.Degree(int32(v))) }, math.MaxInt64)
	max := par.ReduceMax(n, func(v int) int64 { return int64(g.Degree(int32(v))) }, 0)
	mean := float64(sum) / float64(n)
	return DegreeStats{
		N:        n,
		Min:      int(min),
		Max:      int(max),
		Mean:     mean,
		Variance: sumSq/float64(n) - mean*mean,
	}
}

// HistogramBin is one bin of a degree histogram.
type HistogramBin struct {
	Lo, Hi int   // degree range [Lo, Hi]
	Count  int64 // vertices whose degree falls in the range
}

// LogBinnedDegreeHistogram groups degrees into bins whose widths grow by
// the given factor (> 1), the standard presentation of power-law degree
// distributions on log-log axes (the paper's Fig. 2). Degree-0 vertices
// land in a dedicated first bin.
func LogBinnedDegreeHistogram(g *graph.Graph, factor float64) []HistogramBin {
	if factor <= 1 {
		factor = 2
	}
	maxDeg := g.MaxDegree()
	var bins []HistogramBin
	bins = append(bins, HistogramBin{Lo: 0, Hi: 0})
	lo := 1
	for lo <= maxDeg {
		width := int(math.Ceil(float64(lo)*factor)) - lo
		if width < 1 {
			width = 1
		}
		hi := lo + width - 1
		bins = append(bins, HistogramBin{Lo: lo, Hi: hi})
		lo = hi + 1
	}
	for v := 0; v < g.NumVertices(); v++ {
		d := g.Degree(int32(v))
		idx := sort.Search(len(bins), func(i int) bool { return bins[i].Hi >= d })
		bins[idx].Count++
	}
	return bins
}

// PowerLawAlpha estimates the exponent of a power-law degree distribution
// P(d) ~ d^-alpha by maximum likelihood over degrees >= dmin (Newman 2005,
// the paper's power-law reference): alpha = 1 + n / sum ln(d / (dmin-0.5)).
// It returns alpha and the number of vertices used; zero vertices at or
// above dmin yields (0, 0).
func PowerLawAlpha(g *graph.Graph, dmin int) (alpha float64, used int) {
	if dmin < 1 {
		dmin = 1
	}
	var logSum float64
	for v := 0; v < g.NumVertices(); v++ {
		d := g.Degree(int32(v))
		if d >= dmin {
			logSum += math.Log(float64(d) / (float64(dmin) - 0.5))
			used++
		}
	}
	if used == 0 || logSum == 0 {
		return 0, used
	}
	return 1 + float64(used)/logSum, used
}

// GiniCoefficient measures degree concentration in [0,1]: 0 when all
// degrees are equal, approaching 1 when few vertices hold most edges — a
// compact statement of the paper's 80/20 observation.
func GiniCoefficient(g *graph.Graph) float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(int32(v))
	}
	sort.Ints(deg)
	var cum, weighted float64
	for i, d := range deg {
		cum += float64(d)
		weighted += float64(d) * float64(i+1)
	}
	if cum == 0 {
		return 0
	}
	return (2*weighted/(float64(n)*cum) - float64(n+1)/float64(n))
}

// TopShare returns the fraction of all arc endpoints held by the top
// fraction of vertices by degree (e.g. TopShare(g, 0.2) answers "what share
// of connections involve the top 20% of vertices?").
func TopShare(g *graph.Graph, fraction float64) float64 {
	n := g.NumVertices()
	if n == 0 || g.NumArcs() == 0 {
		return 0
	}
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(int32(v))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(deg)))
	top := int(math.Ceil(fraction * float64(n)))
	if top > n {
		top = n
	}
	var sum int64
	for _, d := range deg[:top] {
		sum += int64(d)
	}
	return float64(sum) / float64(g.NumArcs())
}

// DiameterEstimate holds the result of the sampled-BFS diameter estimator.
type DiameterEstimate struct {
	Estimate    int // Multiplier x LongestPath
	LongestPath int // deepest BFS level observed
	Sources     int
}

// ExactDiameter returns the true diameter of g: the largest eccentricity
// over all vertices (0 for empty graphs; unreachable pairs are ignored, so
// a disconnected graph reports its largest intra-component distance). It
// runs a BFS per vertex — use only where n is modest; the sampled
// estimator exists because this is infeasible at the paper's scales.
func ExactDiameter(g *graph.Graph) int {
	srcs := make([]int32, g.NumVertices())
	for v := range srcs {
		srcs[v] = int32(v)
	}
	// The background context never cancels, so the error is impossible.
	ecc, _ := bfs.Eccentricities(context.Background(), g, srcs)
	return maxOf(ecc)
}

func maxOf(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// EstimateDiameter reproduces GraphCT's load-time estimator: BFS from
// `samples` randomly selected sources (the paper uses 256) and estimate the
// diameter as multiplier x the longest path found (the paper uses 4x). The
// estimate sizes traversal queues; overestimates waste memory while
// underestimates would make kernels fail, hence the safety factor.
func EstimateDiameter(g *graph.Graph, samples, multiplier int, seed int64) DiameterEstimate {
	// The background context never cancels, so the error is impossible.
	d, _ := EstimateDiameterCtx(context.Background(), g, samples, multiplier, seed)
	return d
}

// EstimateDiameterCtx is EstimateDiameter with cooperative cancellation:
// the context is checked before each sampled BFS source, so a cancelled
// request stops after at most one in-flight BFS per worker instead of
// sweeping all sources.
func EstimateDiameterCtx(ctx context.Context, g *graph.Graph, samples, multiplier int, seed int64) (DiameterEstimate, error) {
	n := g.NumVertices()
	if n == 0 {
		return DiameterEstimate{}, nil
	}
	if samples <= 0 {
		samples = 256
	}
	if samples > n {
		samples = n
	}
	if multiplier <= 0 {
		multiplier = 4
	}
	rng := rand.New(rand.NewSource(seed))
	srcs := make([]int32, samples)
	perm := rng.Perm(n)
	for i := range srcs {
		srcs[i] = int32(perm[i])
	}
	depths, err := bfs.Eccentricities(ctx, g, srcs)
	if err != nil {
		return DiameterEstimate{}, err
	}
	longest := maxOf(depths)
	return DiameterEstimate{Estimate: multiplier * longest, LongestPath: longest, Sources: samples}, nil
}
