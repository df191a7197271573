package experiments

import (
	"math"
	"math/rand"
	"testing"

	"graphct/internal/bc"
	"graphct/internal/gen"
	"graphct/internal/testutil"
)

func TestConfidenceFullSamplingIsExact(t *testing.T) {
	// With every vertex sampled there is no sampling noise: std must be
	// ~0 everywhere, the top-k sets identical, and the mean exact.
	g := gen.PreferentialAttachment(150, 2, 3)
	exact := bc.Exact(g).Scores
	c := estimateWithConfidence(g, bc.Options{Samples: 0}, 3, 10)
	for v := range exact {
		if !testutil.AlmostEqual(c.Mean[v], exact[v]) {
			t.Fatalf("mean differs at %d: %v vs %v", v, c.Mean[v], exact[v])
		}
		if c.Std[v] > 1e-9 {
			t.Fatalf("std at %d = %v, want 0", v, c.Std[v])
		}
	}
	if c.TopKJaccard != 1 {
		t.Fatalf("jaccard = %v, want 1", c.TopKJaccard)
	}
	if len(c.TopKStable) != 10 {
		t.Fatalf("stable set = %v", c.TopKStable)
	}
	if cv := c.coefficientOfVariation(10); cv > 1e-9 {
		t.Fatalf("cv = %v, want 0", cv)
	}
}

func TestConfidenceSampledHasVariance(t *testing.T) {
	g := gen.PreferentialAttachment(300, 2, 5)
	c := estimateWithConfidence(g, bc.Options{Samples: 30, Seed: 1}, 5, 10)
	if c.Realizations != 5 {
		t.Fatalf("realizations = %d", c.Realizations)
	}
	var anyStd bool
	for _, s := range c.Std {
		if math.IsNaN(s) || s < 0 {
			t.Fatalf("bad std %v", s)
		}
		if s > 0 {
			anyStd = true
		}
	}
	if !anyStd {
		t.Fatal("10% sampling showed zero variance everywhere")
	}
	if c.TopKJaccard <= 0 || c.TopKJaccard > 1 {
		t.Fatalf("jaccard = %v", c.TopKJaccard)
	}
	if len(c.TopKStable) > 10 {
		t.Fatalf("stable set too large: %v", c.TopKStable)
	}
	if cv := c.coefficientOfVariation(10); cv <= 0 {
		t.Fatalf("cv = %v, want > 0 under sampling", cv)
	}
}

func TestConfidenceMoreSamplesTightens(t *testing.T) {
	g := gen.PreferentialAttachment(300, 3, 7)
	loose := estimateWithConfidence(g, bc.Options{Samples: 15, Seed: 2}, 6, 15)
	tight := estimateWithConfidence(g, bc.Options{Samples: 150, Seed: 2}, 6, 15)
	if tight.coefficientOfVariation(15) >= loose.coefficientOfVariation(15) {
		t.Fatalf("cv did not tighten: %v vs %v",
			tight.coefficientOfVariation(15), loose.coefficientOfVariation(15))
	}
	if tight.TopKJaccard < loose.TopKJaccard-0.05 {
		t.Fatalf("ranking stability fell with more samples: %v vs %v",
			tight.TopKJaccard, loose.TopKJaccard)
	}
}

func TestConfidenceRealizationFloor(t *testing.T) {
	g := gen.Ring(20)
	c := estimateWithConfidence(g, bc.Options{Samples: 5}, 0, 5)
	if c.Realizations != 2 {
		t.Fatalf("realizations = %d, want floor 2", c.Realizations)
	}
}

func TestJaccardHelpers(t *testing.T) {
	if j := jaccard([]int32{1, 2}, []int32{2, 3}); !testutil.AlmostEqual(j, 1.0/3) {
		t.Fatalf("jaccard = %v", j)
	}
	if jaccard(nil, nil) != 1 {
		t.Fatal("empty jaccard != 1")
	}
	if got := intersectAll([][]int32{{1, 2, 3}, {2, 3, 4}, {3, 2}}); len(got) != 2 || got[0] != 2 {
		t.Fatalf("intersectAll = %v", got)
	}
	if intersectAll(nil) != nil {
		t.Fatal("empty intersectAll")
	}
	if meanPairwiseJaccard([][]int32{{1}}) != 1 {
		t.Fatal("single-set jaccard != 1")
	}
}

// TestConfidenceRealizationSeedsDistinct is the regression test for the
// seed derivation: realizations once took seeds by a small additive offset
// (seed + r·0x9E37), so a run at base seed X shared its realization-1
// source draw with realization 0 of a run at base seed X+0x9E37. Every
// realization now draws its seed from one stream seeded with the base
// seed; this test pins the user-visible property: on a seeded sampled run
// no two realizations draw the same source set, and the cross-seed alias
// is gone.
func TestConfidenceRealizationSeedsDistinct(t *testing.T) {
	g := gen.PreferentialAttachment(400, 2, 9)
	const realizations = 6
	// Reproduce each realization's source draw exactly as
	// estimateWithConfidence derives it.
	draw := func(base int64) [][]int32 {
		seeds := rand.New(rand.NewSource(base))
		out := make([][]int32, realizations)
		for r := range out {
			out[r] = bc.Centrality(g, bc.Options{Samples: 12, Seed: seeds.Int63()}).Sources
		}
		return out
	}
	draws := draw(42)
	for i := 0; i < realizations; i++ {
		for j := i + 1; j < realizations; j++ {
			if sameSources(draws[i], draws[j]) {
				t.Fatalf("realizations %d and %d drew identical source sets %v", i, j, draws[i])
			}
		}
	}
	if sameSources(draws[1], draw(42 + 0x9E37)[0]) {
		t.Fatal("realizations still alias across (seed, realization) pairs")
	}
}

func sameSources(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCoefficientOfVariationDegenerate(t *testing.T) {
	c := &confidenceResult{Mean: []float64{0, 0}, Std: []float64{1, 1}}
	if cv := c.coefficientOfVariation(2); cv != 0 {
		t.Fatalf("all-zero-mean cv = %v", cv)
	}
}
