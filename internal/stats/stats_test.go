package stats

import (
	"math"
	"testing"
	"testing/quick"

	"graphct/internal/gen"
	"graphct/internal/graph"
)

func TestDegreesRing(t *testing.T) {
	s := Degrees(gen.Ring(10))
	if s.Mean != 2 || s.Variance != 0 || s.Min != 2 || s.Max != 2 || s.N != 10 {
		t.Fatalf("ring stats = %+v", s)
	}
}

func TestDegreesStar(t *testing.T) {
	s := Degrees(gen.Star(5))
	// degrees: 4,1,1,1,1 -> mean 8/5, var = (16 + 4*1)/5 - (8/5)^2
	wantMean := 8.0 / 5
	wantVar := 20.0/5 - wantMean*wantMean
	if math.Abs(s.Mean-wantMean) > 1e-12 || math.Abs(s.Variance-wantVar) > 1e-12 {
		t.Fatalf("star stats = %+v", s)
	}
	if s.Min != 1 || s.Max != 4 {
		t.Fatalf("star min/max = %d/%d", s.Min, s.Max)
	}
}

func TestDegreesEmpty(t *testing.T) {
	s := Degrees(graph.Empty(0, false))
	if s.N != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
}

func TestLogBinnedHistogram(t *testing.T) {
	g := gen.PreferentialAttachment(500, 2, 1)
	bins := LogBinnedDegreeHistogram(g, 2)
	var total int64
	prevHi := -1
	for _, b := range bins {
		if b.Lo != prevHi+1 {
			t.Fatalf("bins not contiguous: %v", bins)
		}
		prevHi = b.Hi
		total += b.Count
	}
	if total != 500 {
		t.Fatalf("histogram total = %d, want 500", total)
	}
	if bins[len(bins)-1].Hi < g.MaxDegree() {
		t.Fatal("histogram does not cover max degree")
	}
	// Invalid factor falls back.
	if got := LogBinnedDegreeHistogram(gen.Path(4), 0.5); len(got) == 0 {
		t.Fatal("fallback factor failed")
	}
}

func TestPowerLawAlphaOnSyntheticPowerLaw(t *testing.T) {
	// Preferential attachment yields alpha ~ 3 in theory; accept a broad
	// band — the point is a plausible heavy-tail exponent, not precision.
	g := gen.PreferentialAttachment(20000, 3, 7)
	alpha, used := PowerLawAlpha(g, 5)
	if used == 0 {
		t.Fatal("no vertices used in fit")
	}
	if alpha < 1.8 || alpha > 4.0 {
		t.Fatalf("alpha = %v, want heavy-tail range [1.8, 4.0]", alpha)
	}
}

func TestPowerLawAlphaDegenerate(t *testing.T) {
	if a, used := PowerLawAlpha(graph.Empty(5, false), 1); a != 0 || used != 0 {
		t.Fatalf("empty fit = %v/%d", a, used)
	}
	// dmin clamped to 1.
	if _, used := PowerLawAlpha(gen.Ring(5), 0); used != 5 {
		t.Fatal("dmin clamp failed")
	}
}

func TestGiniUniformZero(t *testing.T) {
	if gc := GiniCoefficient(gen.Ring(20)); math.Abs(gc) > 1e-9 {
		t.Fatalf("ring gini = %v, want 0", gc)
	}
	if gc := GiniCoefficient(graph.Empty(3, false)); gc != 0 {
		t.Fatalf("zero-degree gini = %v", gc)
	}
}

func TestGiniSkewedPositive(t *testing.T) {
	star := GiniCoefficient(gen.Star(50))
	ring := GiniCoefficient(gen.Ring(50))
	if star <= ring || star <= 0.3 {
		t.Fatalf("star gini %v should greatly exceed ring %v", star, ring)
	}
}

func TestTopShare(t *testing.T) {
	// Star(10): hub holds 9 of 18 arc endpoints = 50%.
	got := TopShare(gen.Star(10), 0.1)
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("top-10%% share = %v, want 0.5", got)
	}
	if TopShare(gen.Star(10), 1.0) != 1.0 {
		t.Fatal("full share != 1")
	}
	if TopShare(graph.Empty(4, false), 0.5) != 0 {
		t.Fatal("empty share != 0")
	}
}

func TestEstimateDiameterPath(t *testing.T) {
	g := gen.Path(100)
	d := EstimateDiameter(g, 100, 1, 1) // all sources, no multiplier
	if d.LongestPath != 99 {
		t.Fatalf("longest path = %d, want 99", d.LongestPath)
	}
	if d.Estimate != 99 {
		t.Fatalf("estimate = %d", d.Estimate)
	}
}

func TestEstimateDiameterDefaults(t *testing.T) {
	g := gen.Ring(50)
	d := EstimateDiameter(g, 0, 0, 1)
	if d.Sources != 50 { // 256 clamped to n
		t.Fatalf("sources = %d, want 50", d.Sources)
	}
	if d.LongestPath != 25 {
		t.Fatalf("ring longest = %d, want 25", d.LongestPath)
	}
	if d.Estimate != 100 {
		t.Fatalf("estimate = %d, want 4x25", d.Estimate)
	}
	if got := EstimateDiameter(graph.Empty(0, false), 5, 4, 1); got.Estimate != 0 {
		t.Fatal("empty graph estimate != 0")
	}
}

func TestExactDiameter(t *testing.T) {
	if d := ExactDiameter(gen.Path(10)); d != 9 {
		t.Fatalf("path diameter = %d", d)
	}
	if d := ExactDiameter(gen.Ring(10)); d != 5 {
		t.Fatalf("ring diameter = %d", d)
	}
	if d := ExactDiameter(gen.Star(20)); d != 2 {
		t.Fatalf("star diameter = %d", d)
	}
	if d := ExactDiameter(graph.Empty(0, false)); d != 0 {
		t.Fatalf("empty diameter = %d", d)
	}
	// Disconnected: largest intra-component distance.
	if d := ExactDiameter(gen.Disjoint(gen.Path(4), gen.Path(7))); d != 6 {
		t.Fatalf("disjoint diameter = %d", d)
	}
}

// Property: sampled longest path never exceeds the exact diameter.
func TestPropertyEstimateBoundedByExact(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(60, 150, seed)
		exact := ExactDiameter(g)
		est := EstimateDiameter(g, 10, 1, seed)
		return est.LongestPath <= exact
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: the 4x sampled estimate never underestimates the eccentricity
// of any sampled source, and sampling all vertices bounds the true diameter
// from below by LongestPath.
func TestPropertyDiameterBounds(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(80, 200, seed)
		d := EstimateDiameter(g, 80, 4, seed)
		return d.Estimate >= d.LongestPath && d.LongestPath >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram counts always sum to the vertex count.
func TestPropertyHistogramPartition(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(70, 150, seed)
		var logb int64
		for _, b := range LogBinnedDegreeHistogram(g, 2) {
			logb += b.Count
		}
		return logb == 70
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
