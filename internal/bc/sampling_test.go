package bc

import (
	"testing"
	"testing/quick"

	"graphct/internal/cc"
	"graphct/internal/gen"
	"graphct/internal/testutil"
)

func TestStratifiedCoversComponents(t *testing.T) {
	// Three components of sizes 60, 30, 10: a 10-source stratified draw
	// must allocate ~6/3/1 and never skip a component entirely.
	g := gen.Disjoint(gen.ErdosRenyi(60, 150, 1), gen.Ring(30), gen.Path(10))
	comps := cc.Components(g)
	srcs := sampleWithStrategy(g, 10, 7, SampleStratified)
	if len(srcs) != 10 {
		t.Fatalf("sources = %d", len(srcs))
	}
	perComp := map[int32]int{}
	seen := map[int32]bool{}
	for _, s := range srcs {
		if seen[s] {
			t.Fatalf("duplicate source %d", s)
		}
		seen[s] = true
		perComp[comps.Colors[s]]++
	}
	if len(perComp) != 3 {
		t.Fatalf("only %d components sampled: %v", len(perComp), perComp)
	}
	if perComp[comps.Colors[0]] < 4 {
		t.Fatalf("large component undersampled: %v", perComp)
	}
}

func TestStratifiedManySingletons(t *testing.T) {
	// 5-vertex ring plus 95 singletons: allocation must still emit the
	// requested number of in-range, distinct sources.
	g := gen.Disjoint(gen.Ring(5), gen.Star(1))
	for i := 0; i < 94; i++ {
		g = gen.Disjoint(g, gen.Star(1))
	}
	srcs := sampleWithStrategy(g, 20, 3, SampleStratified)
	if len(srcs) != 20 {
		t.Fatalf("sources = %d", len(srcs))
	}
	seen := map[int32]bool{}
	for _, s := range srcs {
		if s < 0 || int(s) >= g.NumVertices() || seen[s] {
			t.Fatalf("bad source set %v", srcs)
		}
		seen[s] = true
	}
}

func TestDegreeBiasedPrefersHubs(t *testing.T) {
	// Star(200): the hub should essentially always be drawn.
	g := gen.Star(200)
	hits := 0
	for seed := int64(0); seed < 20; seed++ {
		srcs := sampleWithStrategy(g, 5, seed, SampleDegreeBiased)
		if len(srcs) != 5 {
			t.Fatalf("sources = %d", len(srcs))
		}
		for _, s := range srcs {
			if s == 0 {
				hits++
				break
			}
		}
	}
	if hits < 18 {
		t.Fatalf("hub drawn in only %d/20 trials", hits)
	}
}

func TestStrategiesFallBackToExact(t *testing.T) {
	g := gen.Ring(10)
	for _, st := range []Sampling{SampleUniform, SampleStratified, SampleDegreeBiased} {
		srcs := sampleWithStrategy(g, 0, 1, st)
		if len(srcs) != 10 {
			t.Fatalf("strategy %d: exact fallback gave %d sources", st, len(srcs))
		}
	}
}

func TestStratifiedScoresStillEstimate(t *testing.T) {
	// On a connected vertex-transitive graph stratified == uniform in
	// effect; full sampling recovers exact scores under any strategy.
	g := gen.ErdosRenyi(40, 120, 9)
	exact := Exact(g).Scores
	for _, st := range []Sampling{SampleStratified, SampleDegreeBiased} {
		full := Centrality(g, Options{Samples: 40, Strategy: st}).Scores
		for v := range exact {
			if !testutil.AlmostEqual(exact[v], full[v]) {
				t.Fatalf("strategy %d full sampling differs at %d", st, v)
			}
		}
	}
}

// Property: every strategy returns the requested number of distinct
// in-range sources.
func TestPropertyStrategiesWellFormed(t *testing.T) {
	f := func(seed int64, sRaw uint8) bool {
		g := gen.ErdosRenyi(50, 40, seed) // sparse: many components
		samples := int(sRaw)%49 + 1
		for _, st := range []Sampling{SampleUniform, SampleStratified, SampleDegreeBiased} {
			srcs := sampleWithStrategy(g, samples, seed, st)
			if len(srcs) != samples {
				return false
			}
			seen := map[int32]bool{}
			for _, s := range srcs {
				if s < 0 || int(s) >= 50 || seen[s] {
					return false
				}
				seen[s] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Stratified sampling should reach vertices in components uniform sampling
// can miss: with 2 samples on a graph whose second component is tiny,
// stratified still gives the big component both samples only when
// proportional allocation says so.
func TestStratifiedProportionality(t *testing.T) {
	g := gen.Disjoint(gen.Ring(90), gen.Ring(10))
	comps := cc.Components(g)
	srcs := sampleWithStrategy(g, 10, 5, SampleStratified)
	big, small := 0, 0
	for _, s := range srcs {
		if comps.Colors[s] == comps.Colors[0] {
			big++
		} else {
			small++
		}
	}
	if big != 9 || small != 1 {
		t.Fatalf("allocation big=%d small=%d, want 9/1", big, small)
	}
}
