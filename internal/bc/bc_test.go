package bc

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"graphct/internal/gen"
	"graphct/internal/graph"
	"graphct/internal/testutil"
)

const eps = 1e-9

// bruteForce computes betweenness by the σ_sv·σ_vt/σ_st formulation over
// all-pairs BFS — an implementation independent of the Brandes recurrence.
func bruteForce(g *graph.Graph) []float64 {
	n := g.NumVertices()
	dist := make([][]int32, n)
	sigma := make([][]float64, n)
	for s := 0; s < n; s++ {
		d := make([]int32, n)
		sg := make([]float64, n)
		for i := range d {
			d[i] = -1
		}
		d[s] = 0
		sg[s] = 1
		q := []int32{int32(s)}
		for len(q) > 0 {
			u := q[0]
			q = q[1:]
			for _, v := range g.Neighbors(u) {
				if d[v] == -1 {
					d[v] = d[u] + 1
					q = append(q, v)
				}
				if d[v] == d[u]+1 {
					sg[v] += sg[u]
				}
			}
		}
		dist[s] = d
		sigma[s] = sg
	}
	scores := make([]float64, n)
	for s := 0; s < n; s++ {
		for t := 0; t < n; t++ {
			if s == t || dist[s][t] == -1 {
				continue
			}
			for v := 0; v < n; v++ {
				if v == s || v == t || dist[s][v] == -1 || dist[v][t] == -1 {
					continue
				}
				if dist[s][v]+dist[v][t] == dist[s][t] {
					scores[v] += sigma[s][v] * sigma[v][t] / sigma[s][t]
				}
			}
		}
	}
	return scores
}

func TestExactPath(t *testing.T) {
	g := gen.Path(5)
	r := Exact(g)
	want := []float64{0, 6, 8, 6, 0}
	for v, w := range want {
		if !testutil.AlmostEqual(r.Scores[v], w) {
			t.Errorf("BC(%d) = %v, want %v", v, r.Scores[v], w)
		}
	}
}

func TestExactStar(t *testing.T) {
	g := gen.Star(8)
	r := Exact(g)
	if !testutil.AlmostEqual(r.Scores[0], 7*6) {
		t.Fatalf("center BC = %v, want 42", r.Scores[0])
	}
	for v := 1; v < 8; v++ {
		if r.Scores[v] > eps {
			t.Fatalf("leaf BC(%d) = %v, want 0", v, r.Scores[v])
		}
	}
}

func TestExactCompleteIsZero(t *testing.T) {
	r := Exact(gen.Complete(6))
	for v, s := range r.Scores {
		if s > eps {
			t.Fatalf("K6 BC(%d) = %v, want 0", v, s)
		}
	}
}

func TestExactRingUniform(t *testing.T) {
	r := Exact(gen.Ring(9))
	for v := 1; v < 9; v++ {
		if !testutil.AlmostEqual(r.Scores[v], r.Scores[0]) {
			t.Fatalf("ring BC not uniform: %v vs %v", r.Scores[v], r.Scores[0])
		}
	}
	if r.Scores[0] <= 0 {
		t.Fatal("ring BC should be positive")
	}
}

func TestMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(25, 60, seed)
		want := bruteForce(g)
		got := Exact(g).Scores
		for v := range want {
			if !testutil.AlmostEqual(got[v], want[v]) {
				t.Logf("seed %d: BC(%d) = %v, want %v", seed, v, got[v], want[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestKZeroGeneralPathMatchesBrandes(t *testing.T) {
	// Drive kbcSource directly with k=0; it must agree with Brandes.
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(30, 70, seed)
		n := g.NumVertices()
		want := Exact(g).Scores
		scores := make([]float64, n)
		ws := newWorkspace(g, 0)
		for s := 0; s < n; s++ {
			kbcSource(g, int32(s), ws, scoreSink{local: scores, scale: 1})
		}
		for v := 0; v < n; v++ {
			got := scores[v]
			if !testutil.AlmostEqual(got, want[v]) {
				t.Logf("seed %d v=%d got %v want %v", seed, v, got, want[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// bruteWalks computes k-betweenness by explicit walk enumeration: all walks
// from s whose slack (length − dist) never exceeds k, crediting interior
// visits per target. Exponential; tiny graphs only.
func bruteWalks(g *graph.Graph, k int) []float64 {
	n := g.NumVertices()
	scores := make([]float64, n)
	for s := 0; s < n; s++ {
		// BFS distances from s.
		dist := make([]int32, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[s] = 0
		q := []int32{int32(s)}
		for len(q) > 0 {
			u := q[0]
			q = q[1:]
			for _, v := range g.Neighbors(u) {
				if dist[v] == -1 {
					dist[v] = dist[u] + 1
					q = append(q, v)
				}
			}
		}
		// walkCount[t] = admissible walks s→t; visits[t][v] = total
		// interior visits to v over those walks.
		walkCount := make([]float64, n)
		visits := make([][]float64, n)
		for i := range visits {
			visits[i] = make([]float64, n)
		}
		var rec func(v int32, length int, interior []int32)
		rec = func(v int32, length int, interior []int32) {
			if v != int32(s) && length <= int(dist[v])+k {
				walkCount[v]++
				for _, iv := range interior {
					visits[v][iv]++
				}
			}
			for _, w := range g.Neighbors(v) {
				if w == int32(s) || dist[w] == -1 {
					continue
				}
				if length+1-int(dist[w]) > k {
					continue
				}
				ext := make([]int32, len(interior)+1)
				copy(ext, interior)
				ext[len(interior)] = v
				rec(w, length+1, ext)
			}
		}
		// The source's departure is not an interior visit; pass an empty
		// interior list and strip s from it at credit time instead.
		var rec0 func()
		rec0 = func() {
			for _, w := range g.Neighbors(int32(s)) {
				if w == int32(s) || dist[w] == -1 {
					continue
				}
				if 1-int(dist[w]) > k {
					continue
				}
				rec(w, 1, nil)
			}
		}
		rec0()
		for tt := 0; tt < n; tt++ {
			if tt == s || walkCount[tt] == 0 {
				continue
			}
			for v := 0; v < n; v++ {
				if v == s || v == tt {
					continue
				}
				scores[v] += visits[tt][v] / walkCount[tt]
			}
		}
	}
	return scores
}

func TestKBCMatchesWalkEnumeration(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Path(6),
		gen.Ring(6),
		gen.Star(6),
		gen.Grid(2, 3),
		gen.Complete(5),
		gen.Disjoint(gen.Ring(4), gen.Path(3)),
	}
	for gi, g := range graphs {
		for k := 0; k <= 2; k++ {
			want := bruteWalks(g, k)
			got := Centrality(g, Options{K: k}).Scores
			for v := range want {
				if !testutil.AlmostEqual(got[v], want[v]) {
					t.Errorf("graph %d k=%d BC(%d) = %v, want %v", gi, k, v, got[v], want[v])
				}
			}
		}
	}
}

func TestKBCRandomSmallMatchesWalkEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(8, 12, seed)
		for k := 1; k <= 2; k++ {
			want := bruteWalks(g, k)
			got := Centrality(g, Options{K: k}).Scores
			for v := range want {
				if !testutil.AlmostEqual(got[v], want[v]) {
					t.Logf("seed %d k=%d v=%d got %v want %v", seed, k, v, got[v], want[v])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestK1EqualsBCOnTrees(t *testing.T) {
	// Slack-1 walks need a lateral (same-level) edge, which BFS trees of a
	// tree graph never have, so 1-betweenness equals plain betweenness.
	// (k=2 differs even on trees: backtrack walks v->w->v are admissible.)
	g := gen.BinaryTree(31)
	exact := Exact(g).Scores
	got := Centrality(g, Options{K: 1}).Scores
	for v := range exact {
		if !testutil.AlmostEqual(got[v], exact[v]) {
			t.Fatalf("k=1 BC(%d) = %v, want %v", v, got[v], exact[v])
		}
	}
	k2 := Centrality(g, Options{K: 2}).Scores
	want := bruteWalks(g, 2)
	for v := range want {
		if !testutil.AlmostEqual(k2[v], want[v]) {
			t.Fatalf("k=2 tree BC(%d) = %v, want %v", v, k2[v], want[v])
		}
	}
}

func TestSampledAllSourcesEqualsExact(t *testing.T) {
	g := gen.ErdosRenyi(40, 100, 3)
	exact := Exact(g).Scores
	full := Centrality(g, Options{Samples: 40}).Scores
	over := Centrality(g, Options{Samples: 4000}).Scores
	for v := range exact {
		if !testutil.AlmostEqual(exact[v], full[v]) || !testutil.AlmostEqual(exact[v], over[v]) {
			t.Fatalf("100%% sampling differs at %d", v)
		}
	}
}

func TestSampledScaling(t *testing.T) {
	// On Star(6), each leaf source contributes (n-2)=4 to the center and
	// the center source contributes 0. With S samples the center score is
	// scaled by n/S.
	g := gen.Star(6)
	r := Centrality(g, Options{Samples: 3, Seed: 7})
	if len(r.Sources) != 3 {
		t.Fatalf("sources = %v", r.Sources)
	}
	leaves := 0
	for _, s := range r.Sources {
		if s != 0 {
			leaves++
		}
	}
	want := float64(6) / 3 * float64(leaves) * 4
	if !testutil.AlmostEqual(r.Scores[0], want) {
		t.Fatalf("sampled center = %v, want %v (leaf sources %d)", r.Scores[0], want, leaves)
	}
}

func TestSampledDeterministicPerSeed(t *testing.T) {
	g := gen.PreferentialAttachment(200, 2, 5)
	a := Approx(g, 20, 99)
	b := Approx(g, 20, 99)
	for v := range a.Scores {
		// The source SET is seed-deterministic; scores agree up to the
		// floating-point accumulation order, which varies with the
		// parallel schedule when GOMAXPROCS > 1.
		if !testutil.AlmostEqual(a.Scores[v], b.Scores[v]) {
			t.Fatal("same seed produced different scores")
		}
	}
	for i := range a.Sources {
		if a.Sources[i] != b.Sources[i] {
			t.Fatal("same seed drew different sources")
		}
	}
	c := Approx(g, 20, 100)
	same := true
	for v := range a.Scores {
		if a.Scores[v] != c.Scores[v] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical sampled scores")
	}
}

func TestSampleSourcesProperties(t *testing.T) {
	srcs := sampleSources(100, 30, 1)
	if len(srcs) != 30 {
		t.Fatalf("len = %d", len(srcs))
	}
	seen := map[int32]bool{}
	for _, s := range srcs {
		if s < 0 || s >= 100 || seen[s] {
			t.Fatalf("bad sample %d", s)
		}
		seen[s] = true
	}
	if got := sampleSources(0, 5, 1); len(got) != 0 {
		t.Fatal("empty graph should have no sources")
	}
	if got := sampleSources(5, 0, 1); len(got) != 5 {
		t.Fatal("samples<=0 should mean all sources")
	}
}

// TestDirectedGraphUsesUndirectedProjection pins the one directed path
// left: every kernel projects a directed graph before sweeping it, so the
// forward sweep only ever sees symmetric adjacency. On a directed R-MAT
// multigraph with one-way arcs, reciprocal pairs, self-loops and repeated
// arcs, each call must give the same scores as on g.Undirected(): to the
// bit with one source in flight, within tolerance with four.
func TestDirectedGraphUsesUndirectedProjection(t *testing.T) {
	path, _ := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}}, graph.Options{Directed: true})
	requireScoresClose(t, Exact(path).Scores, Exact(path.Undirected()).Scores)

	p := gen.PaperRMAT(10, 7)
	p.EdgeFactor = 2 // keeps the exact k = 2 sweeps quick under -race
	edges := gen.RMATEdges(p)
	for v := int32(0); v < 64; v++ {
		edges = append(edges, graph.Edge{U: v, V: v}, graph.Edge{U: v, V: v + 100}, graph.Edge{U: v, V: v + 100}, graph.Edge{U: v + 100, V: v})
	}
	d := mustEdges(t, 1<<10, edges, graph.Options{Directed: true, KeepSelfLoops: true, KeepDuplicates: true})
	u := d.Undirected()
	if !d.Directed() || u.Directed() {
		t.Fatal("want a directed input and an undirected projection")
	}
	check := func(t *testing.T, run func(g *graph.Graph, c int) []float64) {
		want := run(u, 1)
		got := run(d, 1)
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("concurrency 1, v=%d: directed %v, projection %v", v, got[v], want[v])
			}
		}
		requireScoresClose(t, run(d, 4), want)
	}
	for _, tc := range []struct {
		name  string
		k     int
		foldC int64 // 0 forces the pendant fold, 1<<40 rules it out; k > 0 never folds
	}{{"k=0/folded", 0, 0}, {"k=0/unfolded", 0, 1 << 40}, {"k=1", 1, 1 << 40}, {"k=2", 2, 1 << 40}} {
		for _, samples := range []int{0, 64} {
			t.Run(fmt.Sprintf("%s/samples=%d", tc.name, samples), func(t *testing.T) {
				old := foldC
				foldC = tc.foldC
				t.Cleanup(func() { foldC = old })
				check(t, func(g *graph.Graph, c int) []float64 {
					return Centrality(g, Options{K: tc.k, Samples: samples, Seed: 3, Concurrency: c}).Scores
				})
			})
		}
	}
	t.Run("approx", func(t *testing.T) {
		check(t, func(g *graph.Graph, c int) []float64 {
			return ApproxCentrality(g, ApproxOptions{Epsilon: 0.05, Seed: 3, Concurrency: c}).Scores
		})
	})
}

func TestDisconnectedComponentsIndependent(t *testing.T) {
	g := gen.Disjoint(gen.Path(5), gen.Path(5))
	r := Exact(g)
	for v := 0; v < 5; v++ {
		if !testutil.AlmostEqual(r.Scores[v], r.Scores[v+5]) {
			t.Fatalf("components differ at %d: %v vs %v", v, r.Scores[v], r.Scores[v+5])
		}
	}
	if !testutil.AlmostEqual(r.Scores[2], 8) {
		t.Fatalf("mid-path BC = %v, want 8", r.Scores[2])
	}
}

func TestDegreeOneVerticesZero(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.PreferentialAttachment(80, 1, seed) // a tree: many leaves
		r := Exact(g)
		for v := 0; v < 80; v++ {
			if g.Degree(int32(v)) == 1 && r.Scores[v] > eps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestTopK(t *testing.T) {
	r := &Result{Scores: []float64{1, 9, 3, 9, 0}}
	top := r.TopK(3)
	if len(top) != 3 || top[0] != 1 || top[1] != 3 || top[2] != 2 {
		t.Fatalf("TopK = %v", top)
	}
	if got := r.TopK(99); len(got) != 5 {
		t.Fatalf("TopK clamp: %v", got)
	}
	if got := r.TopK(0); len(got) != 0 {
		t.Fatalf("TopK(0): %v", got)
	}
	// A NaN met first must not hold a place a score should have: NaN
	// ranks below every number.
	nan := &Result{Scores: []float64{math.NaN(), 2, 1}}
	if got := nan.TopK(2); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("TopK with a NaN = %v, want [1 2]", got)
	}
}

func TestTopKLarge(t *testing.T) {
	g := gen.PreferentialAttachment(300, 2, 8)
	r := Exact(g)
	top := r.TopK(300)
	for i := 1; i < len(top); i++ {
		a, b := r.Scores[top[i-1]], r.Scores[top[i]]
		if a < b || (a == b && top[i-1] >= top[i]) {
			t.Fatalf("TopK order violated at %d", i)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	r := Exact(graph.Empty(0, false))
	if len(r.Scores) != 0 {
		t.Fatal("empty graph should give empty scores")
	}
	one := Exact(graph.Empty(1, false))
	if len(one.Scores) != 1 || one.Scores[0] != 0 {
		t.Fatal("singleton graph should give zero score")
	}
}

func TestNegativeKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative k did not panic")
		}
	}()
	Centrality(gen.Path(3), Options{K: -1})
}

func TestConcurrencyLimitRespected(t *testing.T) {
	g := gen.ErdosRenyi(50, 120, 2)
	a := Centrality(g, Options{Concurrency: 1}).Scores
	b := Centrality(g, Options{Concurrency: 8}).Scores
	for v := range a {
		if !testutil.AlmostEqual(a[v], b[v]) {
			t.Fatal("concurrency changed results")
		}
	}
}

func BenchmarkExactBCSmallWorld(b *testing.B) {
	g := gen.PreferentialAttachment(2000, 4, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Exact(g)
	}
}

func BenchmarkApprox256RMAT12(b *testing.B) {
	g := gen.RMAT(gen.PaperRMAT(12, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Approx(g, 256, int64(i))
	}
}

func BenchmarkKBetweennessK1(b *testing.B) {
	g := gen.PreferentialAttachment(1000, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Centrality(g, Options{K: 1, Samples: 64, Seed: int64(i)})
	}
}

// TestWarmSourceSweepsDoNotAllocate pins the per-source hot paths to zero
// heap allocations once their workspaces are warm: a Brandes source on a
// reused workspace, the weighted pendant-aware Brandes source of a folded
// run, k-betweenness sources at k = 1 and 2, and a bidirectional pair
// sample on a reused pairWorkspace. An extra copy or a per-level buffer
// creeping into any of the loops shows here as a non-zero count.
func TestWarmSourceSweepsDoNotAllocate(t *testing.T) {
	g := gen.RMAT(gen.PaperRMAT(12, 1))
	n := int32(g.NumVertices())
	const runs = 64

	ws := newWorkspace(g, 0)
	sink := scoreSink{local: make([]float64, n), scale: 1}
	src := func(i int) int32 { return int32(i*97) % n }
	for i := 0; i < runs; i++ { // warm-up: grow every slice to its peak
		brandesSource(g, src(i), ws, sink)
	}
	i := 0
	if allocs := testing.AllocsPerRun(runs, func() {
		brandesSource(g, src(i%runs), ws, sink)
		i++
	}); allocs != 0 {
		t.Errorf("warm brandesSource allocates %.2f times a source, want 0", allocs)
	}

	forceFold(t)
	rich := withPendants(t, g, int(n)/2, 1)
	f := planFold(rich, []int32{0})
	if f == nil {
		t.Fatal("forced fold declined")
	}
	fws := newWorkspace(f.core, 0)
	fws.pend = f.pend
	core := int32(f.core.NumVertices())
	fsink := scoreSink{local: make([]float64, core), scale: 3, leaf: 2}
	for i := 0; i < runs; i++ {
		brandesSource(f.core, src(i)%core, fws, fsink)
	}
	i = 0
	if allocs := testing.AllocsPerRun(runs, func() {
		brandesSource(f.core, src(i%runs)%core, fws, fsink)
		i++
	}); allocs != 0 {
		t.Errorf("warm folded brandesSource allocates %.2f times a source, want 0", allocs)
	}

	for k := 1; k <= MaxK; k++ {
		kws := newWorkspace(g, k)
		for i := 0; i < runs; i++ {
			kbcSource(g, src(i), kws, sink)
		}
		i = 0
		if allocs := testing.AllocsPerRun(runs, func() {
			kbcSource(g, src(i%runs), kws, sink)
			i++
		}); allocs != 0 {
			t.Errorf("warm kbcSource at k = %d allocates %.2f times a source, want 0", k, allocs)
		}
	}

	pw := newPairWorkspace(int(n))
	sample := func(i int) {
		rng := sm64{state: deriveState(1, int64(i))}
		s := rng.intn(n)
		u := rng.intn(n - 1)
		if u >= s {
			u++
		}
		bidirSample(g, pw, s, u, &rng)
	}
	for i := 0; i < runs; i++ {
		sample(i)
	}
	i = 0
	if allocs := testing.AllocsPerRun(runs, func() {
		sample(i % runs)
		i++
	}); allocs != 0 {
		t.Errorf("warm bidirSample allocates %.2f times a sample, want 0", allocs)
	}
}
