package bc

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"graphct/internal/gen"
	"graphct/internal/graph"
)

// forceFold makes every k = 0 run with a pendant to fold take the folded
// path, whatever the fold rule would say, for the rest of the test.
func forceFold(t testing.TB) {
	old := foldC
	foldC = 0
	t.Cleanup(func() { foldC = old })
}

func pendants(g *graph.Graph) int {
	var p int
	for v := int32(0); int(v) < g.NumVertices(); v++ {
		if parentOf(g, v) >= 0 {
			p++
		}
	}
	return p
}

// caterpillar is a path of spine vertices, each with legs pendants.
func caterpillar(t testing.TB, spine, legs int) *graph.Graph {
	var edges []graph.Edge
	for i := 1; i < spine; i++ {
		edges = append(edges, graph.Edge{U: int32(i - 1), V: int32(i)})
	}
	next := int32(spine)
	for i := 0; i < spine; i++ {
		for j := 0; j < legs; j++ {
			edges = append(edges, graph.Edge{U: int32(i), V: next})
			next++
		}
	}
	return mustEdges(t, int(next), edges, graph.Options{})
}

// randomTree attaches every vertex to a uniformly drawn earlier one.
func randomTree(t testing.TB, n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{U: int32(rng.Intn(v)), V: int32(v)})
	}
	return mustEdges(t, n, edges, graph.Options{})
}

// withPendants returns g with extra new vertices, each a pendant of a
// uniformly drawn vertex of g.
func withPendants(t testing.TB, g *graph.Graph, extra int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	var edges []graph.Edge
	for u := int32(0); int(u) < n; u++ {
		for _, v := range g.Neighbors(u) {
			if u <= v {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	for i := 0; i < extra; i++ {
		edges = append(edges, graph.Edge{U: int32(rng.Intn(n)), V: int32(n + i)})
	}
	return mustEdges(t, n+extra, edges, graph.Options{})
}

// foldShapes are the graphs the folded run is held to the unfolded oracle
// on: the adversarial shapes, and one graph for each corner of the fold
// rule.
func foldShapes(t testing.TB) map[string]*graph.Graph {
	shapes := adversarialShapes(t)
	shapes["caterpillar"] = caterpillar(t, 40, 3)
	shapes["random-tree"] = randomTree(t, 300, 1)
	// K2s fold neither endpoint; the star beside them keeps the fold on.
	shapes["k2-components"] = gen.Disjoint(gen.Path(2), gen.Path(2), gen.Star(6), gen.Path(2))
	// Vertex 0's only arc is a self loop: degree 1, but not a pendant.
	// Vertex 1 hangs off 2, whose other arc is a self loop: 1 folds.
	shapes["self-loops"] = mustEdges(t, 7, []graph.Edge{
		{U: 0, V: 0}, {U: 1, V: 2}, {U: 2, V: 2}, {U: 3, V: 4}, {U: 4, V: 5}, {U: 4, V: 6}, {U: 6, V: 6},
	}, graph.Options{KeepSelfLoops: true})
	// Parallel arcs between core vertices change their path counts;
	// vertex 8 has two arcs to 7, so degree 2 and no fold.
	shapes["multigraph"] = mustEdges(t, 12, []graph.Edge{
		{U: 0, V: 1}, {U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}, {U: 3, V: 0}, {U: 3, V: 0},
		{U: 1, V: 3}, {U: 0, V: 4}, {U: 0, V: 5}, {U: 2, V: 6}, {U: 2, V: 7}, {U: 7, V: 8}, {U: 7, V: 8},
		{U: 3, V: 9}, {U: 9, V: 10}, {U: 9, V: 11}, {U: 11, V: 11},
	}, graph.Options{KeepDuplicates: true, KeepSelfLoops: true})
	shapes["disconnected"] = gen.Disjoint(randomTree(t, 60, 2), caterpillar(t, 5, 2), gen.ErdosRenyi(40, 60, 3), gen.Path(1))
	shapes["pendant-rich"] = withPendants(t, gen.PreferentialAttachment(200, 2, 4), 150, 5)
	return shapes
}

// TestFoldMatchesOracle holds the folded run to the unfolded oracle on
// every fold shape, exact and sampled under all three strategies, at one,
// two and four sources in flight; the sampled sources must be the ones the
// unfolded run draws, in the same order.
func TestFoldMatchesOracle(t *testing.T) {
	forceFold(t)
	for name, g := range foldShapes(t) {
		t.Run(name, func(t *testing.T) {
			n := g.NumVertices()
			for _, strategy := range []Sampling{SampleUniform, SampleStratified, SampleDegreeBiased} {
				for _, samples := range []int{0, n / 3, n / 2} {
					opt := Options{Samples: samples, Seed: int64(samples) + 7, Strategy: strategy}
					want := unfoldedCentrality(g, opt)
					if pendants(g) > 0 && planFold(g, want.Sources) == nil {
						t.Fatalf("strategy %d samples %d: forced fold declined", strategy, samples)
					}
					for _, c := range []int{1, 2, 4} {
						opt.Concurrency = c
						got := Centrality(g, opt)
						if !slices.Equal(got.Sources, want.Sources) {
							t.Fatalf("strategy %d samples %d c=%d: sources %v, want %v", strategy, samples, c, got.Sources, want.Sources)
						}
						requireScoresClose(t, got.Scores, want.Scores)
					}
				}
			}
		})
	}
}

// twoPassCore is the core planFold built before it renamed in one pass:
// InducedArcs in g's id order, then Relabel(DegreePerm), with origID and
// pend carried through the renaming.
func twoPassCore(t *testing.T, g *graph.Graph) (core *graph.Graph, origID []int32, pend []float64) {
	n := g.NumVertices()
	keep := make([]bool, n)
	for v := range keep {
		keep[v] = parentOf(g, int32(v)) < 0
	}
	core, kept := g.InducedArcs(keep)
	core, inv, err := core.Relabel(graph.DegreePerm(core))
	if err != nil {
		t.Fatal(err)
	}
	origID = make([]int32, len(inv))
	coreID := make([]int32, n)
	for c, k := range inv {
		origID[c] = kept[k]
		coreID[kept[k]] = int32(c)
	}
	pend = make([]float64, len(origID))
	for v := int32(0); int(v) < n; v++ {
		if p := parentOf(g, v); p >= 0 {
			pend[coreID[p]]++
		}
	}
	return core, origID, pend
}

// TestFoldCoreMatchesTwoPassBuild holds planFold's one-pass core to the
// two-pass build, with ==: the CSR arrays, origID and pend, on the
// adversarial shapes, the fold shapes and the Sept-1 ×0.01 component.
func TestFoldCoreMatchesTwoPassBuild(t *testing.T) {
	forceFold(t)
	graphs := adversarialShapes(t)
	for name, g := range foldShapes(t) {
		graphs["fold/"+name] = g
	}
	graphs["sept-0.01"] = septComponent(0.01)
	for name, g := range graphs {
		if g.Directed() {
			g = g.Undirected()
		}
		f := planFold(g, sampleSources(g.NumVertices(), 0, 0))
		if f == nil {
			if pendants(g) > 0 {
				t.Fatalf("%s: forced fold declined", name)
			}
			continue
		}
		core, origID, pend := twoPassCore(t, g)
		if !slices.Equal(f.core.RowPtr(), core.RowPtr()) || !slices.Equal(f.core.AdjArray(), core.AdjArray()) {
			t.Errorf("%s: core CSR differs from the two-pass build", name)
		}
		if f.core.Directed() != core.Directed() || f.core.Weighted() != core.Weighted() {
			t.Errorf("%s: core directed %v weighted %v, want %v and %v", name, f.core.Directed(), f.core.Weighted(), core.Directed(), core.Weighted())
		}
		if !slices.Equal(f.origID, origID) || !slices.Equal(f.pend, pend) {
			t.Errorf("%s: origID or pend differs from the two-pass build", name)
		}
	}
}

// TestFoldCorners pins the pendant rule on the shapes built for it.
func TestFoldCorners(t *testing.T) {
	shapes := foldShapes(t)
	for _, c := range []struct {
		shape  string
		v      int32
		parent int32
	}{
		{"k2-components", 0, -1}, {"k2-components", 1, -1}, {"k2-components", 5, 4},
		{"self-loops", 0, -1}, {"self-loops", 1, 2}, {"self-loops", 3, 4}, {"self-loops", 6, -1},
		{"multigraph", 4, 0}, {"multigraph", 8, -1}, {"multigraph", 10, 9}, {"multigraph", 11, -1},
	} {
		if got := parentOf(shapes[c.shape], c.v); got != c.parent {
			t.Errorf("%s: parent of %d = %d, want %d", c.shape, c.v, got, c.parent)
		}
	}
}

// TestFoldPendantAndParentBothDrawn draws, on a caterpillar, two legs of
// one spine vertex, another spine vertex with one of its legs, and a third
// spine vertex alone: three sweeps for five sources, one of them for
// leaves only.
func TestFoldPendantAndParentBothDrawn(t *testing.T) {
	forceFold(t)
	g := caterpillar(t, 6, 3) // spine 0..5; legs of spine i are 6+3i..8+3i
	sources := []int32{7, 1, 10, 6, 3}
	f := planFold(g, sources)
	if f == nil {
		t.Fatal("forced fold declined")
	}
	// The core is degree-ordered, so sweeps name their sources in core
	// ids; origID takes them back to g's.
	got := make([]sweep, len(f.sweeps))
	for i, sw := range f.sweeps {
		got[i] = sweep{s: f.origID[sw.s], weight: sw.weight, leaves: sw.leaves}
	}
	want := []sweep{{s: 0, weight: 2, leaves: 2}, {s: 1, weight: 2, leaves: 1}, {s: 3, weight: 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("sweeps in g ids %v, want %v", got, want)
	}
	scale := float64(g.NumVertices()) / float64(len(sources))
	for _, c := range []int{1, 2} {
		scores, err := runSources(context.Background(), f.core.NumVertices(), f.sweeps, scale, c, f.kernel)
		if err != nil {
			t.Fatal(err)
		}
		requireScoresClose(t, f.expand(scores), unfoldedFor(g, sources, scale))
	}
}

// TestNothingToFoldIsBitIdentical: where there is nothing to fold, or the
// fold rule declines, one source in flight gives the oracle's scores to
// the bit.
func TestNothingToFoldIsBitIdentical(t *testing.T) {
	cases := map[string]struct {
		g       *graph.Graph
		force   bool
		samples []int
	}{
		"clique": {gen.Complete(30), true, []int{0, 16}},
		"ring":   {gen.Ring(200), true, []int{0, 16}},
		"grid":   {gen.Grid(12, 15), true, []int{0, 16}},
		// Pendants, but too few sources for the shipped rule.
		"rmat-sampled": {gen.RMAT(gen.PaperRMAT(10, 1)), false, []int{4, 16}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			if c.force {
				forceFold(t)
			} else if pendants(c.g) == 0 {
				t.Fatal("no pendants for the rule to decline")
			}
			for _, samples := range c.samples {
				opt := Options{Samples: samples, Seed: 3, Concurrency: 1}
				want := unfoldedCentrality(c.g, opt)
				if planFold(c.g, want.Sources) != nil {
					t.Fatalf("samples %d: folded", samples)
				}
				got := Centrality(c.g, opt)
				for v := range want.Scores {
					if got.Scores[v] != want.Scores[v] {
						t.Fatalf("samples %d, v=%d: %v, want bit-identical %v", samples, v, got.Scores[v], want.Scores[v])
					}
				}
			}
		})
	}
}

// TestFoldRule checks the rule's two sides at the shipped constant: a
// request that draws few sources on a graph with few pendants stays
// unfolded, many sources on a pendant-rich one fold.
func TestFoldRule(t *testing.T) {
	rich := withPendants(t, gen.PreferentialAttachment(2000, 3, 1), 1500, 2)
	for _, c := range []struct {
		g       *graph.Graph
		samples int
		fold    bool
	}{
		{rich, 256, true},
		{rich, 0, true},
		{rich, 2, false},
		{gen.RMAT(gen.PaperRMAT(12, 1)), 64, false},
		// q ≈ 10.6 distinct sweeps × pendants / n, as batch_rmat16's
		// 256-source request: too few pendants on R-MAT to pay.
		{gen.RMAT(gen.PaperRMAT(12, 1)), 512, false},
	} {
		sources, _, _ := drawSources(c.g, Options{Samples: c.samples, Seed: 1})
		if got := planFold(c.g, sources) != nil; got != c.fold {
			t.Errorf("n=%d pendants=%d samples=%d: fold %v, want %v", c.g.NumVertices(), pendants(c.g), c.samples, got, c.fold)
		}
	}
}

// FuzzFoldedCentrality turns bytes into a small multigraph — self loops,
// repeated arcs, pendants and K2s come naturally at this density — plus a
// sample count, seed and strategy, and holds the forced fold to the
// unfolded oracle, and the unfolded kernel, one source at a time, to the
// pull sweep's scores with ==. The seed byte's parity also picks k = 1 or
// 2, and every source's k-betweenness must equal the retired kernel's
// with ==.
func FuzzFoldedCentrality(f *testing.F) {
	f.Add([]byte{9, 0, 1, 0, 0, 1, 1, 2, 2, 3, 3, 3, 4, 5, 4, 6, 7, 8})
	f.Add([]byte{12, 5, 9, 2, 0, 1, 0, 1, 1, 2, 2, 0, 3, 0, 4, 5, 6, 7, 8, 8, 9, 10, 9, 11})
	f.Add([]byte{20, 7, 3, 1, 0, 1, 2, 3, 4, 5, 6, 7, 0, 8, 0, 9, 0, 10, 11, 12, 12, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		forceFold(t)
		n := 1 + int(data[0])%40
		opt := Options{
			Samples:  int(data[1]) % (n + 1),
			Seed:     int64(data[2]),
			Strategy: Sampling(data[3] % 3),
		}
		var edges []graph.Edge
		for i := 4; i+1 < len(data); i += 2 {
			edges = append(edges, graph.Edge{U: int32(int(data[i]) % n), V: int32(int(data[i+1]) % n)})
		}
		g, err := graph.FromEdges(n, edges, graph.Options{KeepDuplicates: true, KeepSelfLoops: true})
		if err != nil {
			t.Fatal(err)
		}
		want := unfoldedCentrality(g, opt)
		// The unfolded kernel, one source at a time, is the pull sweep's
		// run to the bit.
		_, _, scale := drawSources(g, opt)
		for v, x := range pullFor(g, want.Sources, scale) {
			if want.Scores[v] != x {
				t.Fatalf("unfolded v=%d: %v, want pull's bit-identical %v", v, want.Scores[v], x)
			}
		}
		opt.Concurrency = 2
		got := Centrality(g, opt)
		if !slices.Equal(got.Sources, want.Sources) {
			t.Fatalf("sources %v, want %v", got.Sources, want.Sources)
		}
		requireScoresClose(t, got.Scores, want.Scores)
		requireKBCMatchesOracle(t, g, 1+int(data[2])%2)
	})
}
