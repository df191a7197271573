package graph

// Differential tests for the one CSR constructor (build): every builder
// and transform must produce the retired builders' rowPtr and adj byte for
// byte (oracle_test.go). Weights are held to a brute-force spec instead —
// first instance in input order — because the oracle's duplicate choice
// was arbitrary and its Induced dropped weights; the two must
// agree wherever the oracle's answer was well defined.

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

type builderShape struct {
	name  string
	n     int
	edges []Edge
}

// builderShapes is PR 19's shape list plus the inputs ingest must survive:
// duplicate and reversed instances, loops, out-of-order lists.
func builderShapes() []builderShape {
	rng := rand.New(rand.NewSource(21))
	var out []builderShape
	add := func(name string, n int, edges []Edge) {
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		out = append(out, builderShape{name, n, edges})
	}
	var wheel []Edge
	for v := int32(1); v <= 2000; v++ {
		wheel = append(wheel, Edge{0, v}, Edge{v, v%2000 + 1})
	}
	add("hub-wheel", 2001, wheel)
	var path []Edge
	for v := int32(0); v+1 < 10000; v++ {
		path = append(path, Edge{v + 1, v})
	}
	add("path-10k", 10000, path)
	var clique, matching []Edge
	for u := int32(0); u < 120; u++ {
		for v := u + 1; v < 120; v++ {
			clique = append(clique, Edge{v, u})
			if !(u%2 == 0 && v == u+1) {
				matching = append(matching, Edge{u, v})
			}
		}
	}
	add("clique-120", 120, clique)
	add("clique-minus-matching", 120, matching)
	var tiny []Edge
	for c := int32(0); c < 400; c++ {
		b := 3 * c
		tiny = append(tiny, Edge{b, b + 1}, Edge{b + 1, b + 2})
		if c%2 == 0 {
			tiny = append(tiny, Edge{b + 2, b})
		}
	}
	add("400-components", 1200, tiny)
	var isolated []Edge
	for i := 0; i < 60; i++ {
		isolated = append(isolated, Edge{int32(rng.Intn(100)), int32(4900 + rng.Intn(100))})
	}
	add("isolated", 5000, isolated)
	var multi []Edge
	for i := 0; i < 6000; i++ {
		u, v := int32(rng.Intn(300)), int32(rng.Intn(300))
		switch rng.Intn(10) {
		case 0:
			v = u
		case 1, 2:
			if len(multi) > 0 {
				e := multi[rng.Intn(len(multi))]
				u, v = e.V, e.U // a reversed repeat
			}
		}
		multi = append(multi, Edge{u, v})
	}
	add("loops-multi", 300, multi)
	var mutual []Edge
	for i := 0; i < 3000; i++ {
		u, v := int32(rng.Intn(500)), int32(rng.Intn(500))
		mutual = append(mutual, Edge{u, v})
		if i%3 == 0 {
			mutual = append(mutual, Edge{v, u})
		}
	}
	add("directed-mutual", 500, mutual)
	add("rmat-12", 1<<12, testRMAT(12, 5))
	add("no-edges", 7, nil)
	add("no-vertices", 0, nil)
	return out
}

// testRMAT is a small R-MAT edge list (A=0.55, B=C=0.10, edge factor 16)
// for tests and benchmarks; gen imports this package, so it cannot be used
// here.
func testRMAT(scale int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 16<<scale)
	for i := range edges {
		var u, v int32
		for bit := int32(1) << (scale - 1); bit > 0; bit >>= 1 {
			switch r := rng.Float64(); {
			case r < 0.55:
			case r < 0.65:
				v |= bit
			case r < 0.75:
				u |= bit
			default:
				u, v = u|bit, v|bit
			}
		}
		edges[i] = Edge{u, v}
	}
	return edges
}

func allOptions() []Options {
	var out []Options
	for bits := 0; bits < 8; bits++ {
		out = append(out, Options{Directed: bits&1 != 0, KeepDuplicates: bits&2 != 0, KeepSelfLoops: bits&4 != 0})
	}
	return out
}

func withWeights(edges []Edge, seed int64) []WeightedEdge {
	rng := rand.New(rand.NewSource(seed))
	out := make([]WeightedEdge, len(edges))
	for i, e := range edges {
		out[i] = WeightedEdge{e.U, e.V, int32(rng.Intn(1000))}
	}
	return out
}

// specArc is one arc of the brute-force spec: the arcs are sorted by
// (u, v) and then by seq, their position in the caller's list, so ties keep
// the order the caller listed them in.
type specArc struct{ u, v, w, seq int32 }

func specGraph(n int, arcs []specArc, directed, weighted bool) *Graph {
	for i := range arcs {
		arcs[i].seq = int32(i)
	}
	slices.SortFunc(arcs, func(a, b specArc) int {
		return cmp.Or(cmp.Compare(a.u, b.u), cmp.Compare(a.v, b.v), cmp.Compare(a.seq, b.seq))
	})
	g := &Graph{rowPtr: make([]int64, n+1), adj: make([]int32, len(arcs)), directed: directed}
	if weighted {
		g.weights = make([]int32, len(arcs))
	}
	for i, a := range arcs {
		g.rowPtr[a.u+1]++
		g.adj[i] = a.v
		if weighted {
			g.weights[i] = a.w
		}
	}
	for v := 0; v < n; v++ {
		g.rowPtr[v+1] += g.rowPtr[v]
	}
	return g
}

// specFromEdges is ingest by definition: drop loops unless kept, merge
// each edge's instances (both orientations when undirected) into the
// first one unless duplicates are kept, emit one arc per direction.
func specFromEdges(n int, edges []WeightedEdge, opt Options, weighted bool) *Graph {
	seen := map[[2]int32]bool{}
	var arcs []specArc
	for _, e := range edges {
		u, v := e.U, e.V
		if u == v && !opt.KeepSelfLoops {
			continue
		}
		if !opt.Directed && u > v {
			u, v = v, u
		}
		if !opt.KeepDuplicates {
			if seen[[2]int32{u, v}] {
				continue
			}
			seen[[2]int32{u, v}] = true
		}
		arcs = append(arcs, specArc{u, v, e.W, 0})
		if !opt.Directed && u != v {
			arcs = append(arcs, specArc{v, u, e.W, 0})
		}
	}
	return specGraph(n, arcs, opt.Directed, weighted)
}

// sameCSR fails unless got and want hold identical rowPtr and adj (and,
// when checkWeights, identical weights).
func sameCSR(t *testing.T, what string, got, want *Graph, checkWeights bool) {
	t.Helper()
	if got.directed != want.directed {
		t.Fatalf("%s: directed %v, want %v", what, got.directed, want.directed)
	}
	if !slices.Equal(got.rowPtr, want.rowPtr) {
		t.Fatalf("%s: rowPtr differs", what)
	}
	if !slices.Equal(got.AdjArray(), want.AdjArray()) {
		t.Fatalf("%s: adj differs", what)
	}
	if checkWeights && !slices.Equal(got.weights, want.weights) {
		t.Fatalf("%s: weights differ", what)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// unambiguous reports whether no edge has two instances under opt, i.e.
// the retired builder's choice of surviving weight was well defined.
func unambiguous(edges []Edge, opt Options) bool {
	seen := map[Edge]bool{}
	for _, e := range edges {
		if !opt.Directed {
			e = e.canon()
		}
		if seen[e] {
			return false
		}
		seen[e] = true
	}
	return true
}

func TestBuilderMatchesOracle(t *testing.T) {
	for _, s := range builderShapes() {
		for _, opt := range allOptions() {
			what := fmt.Sprintf("%s %+v", s.name, opt)
			want, err := oracleFromEdges(s.n, slices.Clone(s.edges), opt)
			if err != nil {
				t.Fatal(err)
			}
			g, err := FromEdges(s.n, s.edges, opt)
			if err != nil {
				t.Fatal(err)
			}
			sameCSR(t, what, g, want, true)
			sameCSR(t, what+" spec", g, specFromEdges(s.n, withWeights(s.edges, 0), opt, false), true)
			if g.NumEdges() != oracleNumEdges(g) {
				t.Fatalf("%s: NumEdges %d, oracle %d", what, g.NumEdges(), oracleNumEdges(g))
			}

			wedges := withWeights(s.edges, 3)
			wg, err := FromWeightedEdges(s.n, wedges, opt)
			if err != nil {
				t.Fatal(err)
			}
			wwant, _ := oracleFromWeightedEdges(s.n, slices.Clone(wedges), opt)
			sameCSR(t, what+" weighted", wg, wwant, unambiguous(s.edges, opt))
			sameCSR(t, what+" weighted spec", wg, specFromEdges(s.n, wedges, opt, true), true)

			checkTransforms(t, what, g)
			checkTransforms(t, what+" weighted", wg)
		}
	}
}

// checkTransforms holds every transform of g to its retired version, and
// the weights of the weighted ones to their spec.
func checkTransforms(t *testing.T, what string, g *Graph) {
	t.Helper()
	n := g.NumVertices()
	weighted := g.Weighted()
	slot := func(visit func(u, v, w int32)) {
		for u := 0; u < n; u++ {
			for i, v := range g.Neighbors(int32(u)) {
				var w int32
				if weighted {
					w = g.weights[g.rowPtr[u]+int64(i)]
				}
				visit(int32(u), v, w)
			}
		}
	}
	// Weighted multigraphs are where the retired builders' weight order
	// was arbitrary.
	multi := false
	for u := 0; u < n && !multi; u++ {
		row := g.Neighbors(int32(u))
		for i := 1; i < len(row); i++ {
			multi = multi || row[i] == row[i-1]
		}
	}

	if g.directed {
		sameCSR(t, what+" Undirected", g.Undirected(), oracleUndirected(g), true)
	}

	keep := make([]bool, n)
	newID := make([]int32, n)
	var m int32
	for v := range keep {
		keep[v] = v%3 != 1
		newID[v] = m
		if keep[v] {
			m++
		}
	}
	sub, orig := g.Induced(keep)
	osub, oorig := oracleInduced(g, keep)
	if !slices.Equal(orig, oorig) {
		t.Fatalf("%s Induced: origID differs", what)
	}
	sameCSR(t, what+" Induced", sub, osub, !weighted)
	var ind []specArc
	seen := map[[2]int32]bool{}
	slot(func(u, v, w int32) {
		a := [2]int32{newID[u], newID[v]}
		if keep[u] && keep[v] && !seen[a] {
			seen[a] = true
			ind = append(ind, specArc{a[0], a[1], w, 0})
		}
	})
	sameCSR(t, what+" Induced spec", sub, specGraph(int(m), ind, g.directed, weighted), true)
	// InducedArcs keeps every arc between kept vertices, repeats included,
	// and no weights.
	arcs, aorig := g.InducedArcs(keep)
	if !slices.Equal(aorig, orig) {
		t.Fatalf("%s InducedArcs: origID differs", what)
	}
	var all []specArc
	slot(func(u, v, w int32) {
		if keep[u] && keep[v] {
			all = append(all, specArc{newID[u], newID[v], w, 0})
		}
	})
	sameCSR(t, what+" InducedArcs spec", arcs, specGraph(int(m), all, g.directed, false), true)
	// InducedArcsByDegree is InducedArcs renamed by its own DegreePerm.
	byDeg, dorig := g.InducedArcsByDegree(keep)
	relabeled, inv, err := arcs.Relabel(DegreePerm(arcs))
	if err != nil {
		t.Fatal(err)
	}
	for c, k := range inv {
		if dorig[c] != aorig[k] {
			t.Fatalf("%s InducedArcsByDegree: origID[%d] = %d, want %d", what, c, dorig[c], aorig[k])
		}
	}
	sameCSR(t, what+" InducedArcsByDegree", byDeg, relabeled, true)

	sameCSR(t, what+" ReciprocalCore", g.ReciprocalCore(), oracleReciprocalCore(g), true)
	live := make([]bool, n)
	slot(func(u, v, _ int32) { live[u], live[v] = true, true })
	d, dorig := g.DropIsolated()
	od, odorig := oracleInduced(g, live)
	if !slices.Equal(dorig, odorig) {
		t.Fatalf("%s DropIsolated: origID differs", what)
	}
	sameCSR(t, what+" DropIsolated", d, od, !weighted)

	perm := DegreePerm(g)
	if !slices.Equal(perm, oracleDegreePerm(g)) {
		t.Fatalf("%s: DegreePerm differs from the oracle", what)
	}
	rl, inv, err := g.Relabel(perm)
	if err != nil {
		t.Fatal(err)
	}
	orl, oinv, _ := oracleRelabel(g, perm)
	if !slices.Equal(inv, oinv) {
		t.Fatalf("%s Relabel: inverse differs", what)
	}
	sameCSR(t, what+" Relabel", rl, orl, !multi)
	var rel []specArc
	slot(func(u, v, w int32) { rel = append(rel, specArc{perm[u], perm[v], w, 0}) })
	sameCSR(t, what+" Relabel spec", rl, specGraph(n, rel, g.directed, weighted), true)
}

// The weight rule on the input the bug was found with: a seeded 50-vertex
// list of 5,000 weighted edges, where the retired builder let most merged
// arcs carry a later instance's weight.
func TestWeightedDuplicatesKeepFirstInstance(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges := make([]WeightedEdge, 5000)
	first := map[Edge]int32{}
	for i := range edges {
		e := WeightedEdge{int32(rng.Intn(50)), int32(rng.Intn(50)), int32(rng.Intn(1 << 20))}
		edges[i] = e
		k := Edge{e.U, e.V}.canon()
		if _, ok := first[k]; !ok {
			first[k] = e.W
		}
	}
	g, err := FromWeightedEdges(50, edges, Options{})
	if err != nil {
		t.Fatal(err)
	}
	arcs := 0
	for u := int32(0); u < 50; u++ {
		for i, v := range g.Neighbors(u) {
			arcs++
			if w := g.Weights(u)[i]; w != first[Edge{u, v}.canon()] {
				t.Fatalf("arc %d->%d weight %d, first instance has %d", u, v, w, first[Edge{u, v}.canon()])
			}
		}
	}
	if arcs == 0 {
		t.Fatal("no arcs built")
	}

	// (u,v,w1) then (v,u,w2): one undirected edge, both arcs w1; two
	// directed arcs with their own weights.
	pair := []WeightedEdge{{3, 1, 7}, {1, 3, 9}}
	u, _ := FromWeightedEdges(4, pair, Options{})
	if u.Weights(1)[0] != 7 || u.Weights(3)[0] != 7 {
		t.Fatalf("undirected weights %v %v, want 7 7", u.Weights(1), u.Weights(3))
	}
	d, _ := FromWeightedEdges(4, pair, Options{Directed: true})
	if d.Weights(3)[0] != 7 || d.Weights(1)[0] != 9 {
		t.Fatalf("directed weights %v %v, want 7 and 9", d.Weights(3), d.Weights(1))
	}
}

// The first out-of-range edge reported is the lowest-index one, whichever
// worker finds it.
func TestFromEdgesReportsFirstBadEdge(t *testing.T) {
	edges := testRMAT(10, 2)
	edges[len(edges)-7] = Edge{1 << 10, 0}
	edges[5000] = Edge{3, -4}
	_, err := FromEdges(1<<10, edges, Options{})
	_, want := oracleFromEdges(1<<10, slices.Clone(edges), Options{})
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("error %v, want %v", err, want)
	}
	_, err = FromWeightedEdges(1<<10, withWeights(edges, 1), Options{})
	if err == nil || err.Error() != want.Error() {
		t.Fatalf("weighted error %v, want %v", err, want)
	}
}

// FuzzFromEdges builds random small edge lists under every option and
// holds the result to Validate, the oracle and the weight spec.
func FuzzFromEdges(f *testing.F) {
	f.Add([]byte{5, 0, 0, 1, 1, 2, 2, 0})
	f.Add([]byte{3, 15, 0, 0, 1, 2, 2, 1, 1, 2})
	f.Add([]byte{4, 6, 3, 3, 3, 3, 0, 1, 1, 0})
	f.Add([]byte{2, 1, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n, bits := int(data[0]%64), data[1]
		opt := Options{Directed: bits&1 != 0, KeepDuplicates: bits&2 != 0, KeepSelfLoops: bits&4 != 0}
		var wedges []WeightedEdge
		var edges []Edge
		id := func(b byte) int32 { // mostly in range, a few ids just outside
			switch {
			case b == 255:
				return -1
			case b == 254 || n == 0:
				return int32(n)
			}
			return int32(int(b) % n)
		}
		for i := 2; i+1 < len(data); i += 2 {
			e := Edge{id(data[i]), id(data[i+1])}
			edges = append(edges, e)
			wedges = append(wedges, WeightedEdge{e.U, e.V, int32(i)})
		}
		want, werr := oracleFromEdges(n, slices.Clone(edges), opt)
		g, err := FromEdges(n, edges, opt)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("error %v, oracle %v", err, werr)
		}
		if err != nil {
			return
		}
		sameCSR(t, "unweighted", g, want, true)
		wg, err := FromWeightedEdges(n, wedges, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameCSR(t, "weighted", wg, specFromEdges(n, wedges, opt, true), true)
		checkTransforms(t, "fuzz", g)
		checkTransforms(t, "fuzz weighted", wg)
	})
}

func BenchmarkFromEdgesRMAT16(b *testing.B) {
	edges := testRMAT(16, 1)
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			FromEdges(1<<16, edges, Options{})
		}
	})
	b.Run("oracle", func(b *testing.B) {
		in := make([]Edge, len(edges))
		for i := 0; i < b.N; i++ {
			copy(in, edges)
			oracleFromEdges(1<<16, in, Options{})
		}
	})
}

func BenchmarkRelabelRMAT16(b *testing.B) {
	g, _ := FromEdges(1<<16, testRMAT(16, 1), Options{})
	b.Run("build", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Relabel(DegreePerm(g))
		}
	})
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			oracleRelabel(g, oracleDegreePerm(g))
		}
	})
}

// NumEdges is counted once per graph and shared by concurrent callers;
// IncrementalCSR records it at construction. Every caller sees the
// retired count.
func TestNumEdgesMemoized(t *testing.T) {
	var graphs []*Graph
	for _, s := range builderShapes() {
		for _, opt := range allOptions() {
			g, err := FromEdges(s.n, s.edges, opt)
			if err != nil {
				t.Fatal(err)
			}
			graphs = append(graphs, g)
		}
	}
	d := newDynAdj(300)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		if u, v := int32(rng.Intn(300)), int32(rng.Intn(300)); u != v {
			d.add(u, v)
		}
	}
	live, err := IncrementalCSR(nil, 300, d.deg(), nil, d.fill)
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, live)
	for i, g := range graphs {
		want := oracleNumEdges(g)
		got := make([]int64, 8)
		var wg sync.WaitGroup
		for c := range got {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				got[c] = g.NumEdges()
			}(c)
		}
		wg.Wait()
		for _, e := range got {
			if e != want {
				t.Fatalf("graph %d: NumEdges %v, oracle %d", i, got, want)
			}
		}
	}
}
