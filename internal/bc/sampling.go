package bc

import (
	"math"
	"math/rand"
	"sort"

	"graphct/internal/cc"
	"graphct/internal/graph"
	"graphct/internal/rank"
)

// Sampling selects the source-sampling strategy for approximate
// betweenness centrality. The paper samples uniformly ("unguided") and
// conjectures in Section V that this misses components when the graph is
// disconnected; the alternative strategies implement that future-work
// direction and are compared by the sampling-strategy ablation.
type Sampling int

const (
	// SampleUniform draws sources uniformly without replacement — the
	// paper's strategy.
	SampleUniform Sampling = iota
	// SampleStratified allocates sources to connected components in
	// proportion to their size (largest-remainder rounding), then draws
	// uniformly within each component, so small components are not
	// silently skipped.
	SampleStratified
	// SampleDegreeBiased draws sources without replacement with
	// probability proportional to degree (Efraimidis–Spirakis weighted
	// reservoir), concentrating effort where most shortest paths start.
	SampleDegreeBiased
)

// sampleWithStrategy returns the source set for the requested strategy.
// samples out of range means every vertex regardless of strategy.
func sampleWithStrategy(g *graph.Graph, samples int, seed int64, strategy Sampling) []int32 {
	n := g.NumVertices()
	if n == 0 || samples <= 0 || samples >= n {
		return sampleSources(n, samples, seed)
	}
	switch strategy {
	case SampleStratified:
		return sampleStratified(g, samples, seed)
	case SampleDegreeBiased:
		return sampleDegreeBiased(g, samples, seed)
	default:
		return sampleSources(n, samples, seed)
	}
}

func sampleStratified(g *graph.Graph, samples int, seed int64) []int32 {
	comps := cc.Components(g)
	census := comps.Census()
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(seed))

	// Bucket vertices by component label.
	members := make(map[int32][]int32, len(census))
	for v := 0; v < n; v++ {
		c := comps.Colors[v]
		members[c] = append(members[c], int32(v))
	}

	// Proportional allocation with largest-remainder rounding.
	type alloc struct {
		label int32
		want  float64
		got   int
	}
	allocs := make([]alloc, len(census))
	total := 0
	for i, c := range census {
		want := float64(samples) * float64(c.Size) / float64(n)
		got := int(math.Floor(want))
		if got > int(c.Size) {
			got = int(c.Size)
		}
		allocs[i] = alloc{label: c.Label, want: want, got: got}
		total += got
	}
	// Distribute the remainder to the largest fractional parts that still
	// have capacity.
	order := make([]int, len(allocs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		fa := allocs[order[a]].want - math.Floor(allocs[order[a]].want)
		fb := allocs[order[b]].want - math.Floor(allocs[order[b]].want)
		if fa != fb {
			return fa > fb
		}
		return order[a] < order[b]
	})
	for _, i := range order {
		if total >= samples {
			break
		}
		if allocs[i].got < len(members[allocs[i].label]) {
			allocs[i].got++
			total++
		}
	}
	// If rounding capacity still left samples unassigned (many singleton
	// components), sweep components in size order.
	for i := range allocs {
		if total >= samples {
			break
		}
		room := len(members[allocs[i].label]) - allocs[i].got
		take := samples - total
		if take > room {
			take = room
		}
		allocs[i].got += take
		total += take
	}

	out := make([]int32, 0, samples)
	for _, a := range allocs {
		vs := members[a.label]
		perm := rng.Perm(len(vs))
		for j := 0; j < a.got; j++ {
			out = append(out, vs[perm[j]])
		}
	}
	return out
}

func sampleDegreeBiased(g *graph.Graph, samples int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]float64, g.NumVertices())
	for v := range keys {
		w := float64(g.Degree(int32(v)))
		if w <= 0 {
			// Zero-degree vertices contribute nothing to centrality;
			// give them an epsilon weight so they only fill leftover
			// slots.
			w = 1e-9
		}
		keys[v] = math.Pow(rng.Float64(), 1/w)
	}
	return rank.Top(keys, samples)
}
