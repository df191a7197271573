package cluster_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"graphct/internal/cluster"
	"graphct/internal/gen"
	"graphct/internal/graph"
)

// shape is one input of the differential suite. simple is the same graph
// without repeated arcs, which is what the retained oracle is defined on;
// it is g itself for every shape but the multigraph.
type shape struct {
	name      string
	g, simple *graph.Graph
}

func build(t *testing.T, n int, edges []graph.Edge, opt graph.Options) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, append([]graph.Edge(nil), edges...), opt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func shapes(t *testing.T) []shape {
	plain := func(name string, g *graph.Graph) shape { return shape{name, g, g} }

	// Wheel: one hub adjacent to every vertex of a ring, so the hub sits on
	// n-1 triangles and every other vertex on two.
	var wheel []graph.Edge
	for v := int32(1); v < 1500; v++ {
		wheel = append(wheel, graph.Edge{U: 0, V: v}, graph.Edge{U: v, V: v%1499 + 1})
	}
	// K40 minus a perfect matching.
	var unmatched []graph.Edge
	for u := int32(0); u < 40; u++ {
		for v := u + 1; v < 40; v++ {
			if u/2 != v/2 {
				unmatched = append(unmatched, graph.Edge{U: u, V: v})
			}
		}
	}
	tiny := make([]*graph.Graph, 400)
	for i := range tiny {
		tiny[i] = []*graph.Graph{gen.Complete(3), gen.Path(2), gen.Complete(4), gen.Ring(5)}[i%4]
	}
	// Six live vertices among sixty.
	sparse := []graph.Edge{{U: 3, V: 17}, {U: 17, V: 40}, {U: 40, V: 3}, {U: 40, V: 59}, {U: 59, V: 8}, {U: 8, V: 40}}

	// Bitmap word edges, n = 201 (not a multiple of 64). Vertex 1 ties in
	// degree with a clique on the 66 multiples of 3 below 200 and has the
	// lowest id, so its oriented row is the whole clique, one hub row over
	// all four words. Vertex 200 (degree 5) has oriented row 62..66, across
	// the first word boundary, and closes seven triangles there; 62, 64 and
	// 65 also reach clique members in later words that are not in that row.
	var words []graph.Edge
	for u := int32(3); u < 200; u += 3 {
		words = append(words, graph.Edge{U: 1, V: u})
		for v := u + 3; v < 200; v += 3 {
			words = append(words, graph.Edge{U: u, V: v})
		}
	}
	for u := int32(62); u <= 66; u++ {
		words = append(words, graph.Edge{U: 200, V: u})
	}
	words = append(words, []graph.Edge{{U: 62, V: 63}, {U: 63, V: 64}, {U: 64, V: 65}, {U: 65, V: 66}, {U: 62, V: 64}, {U: 63, V: 65}}...)
	for _, u := range []int32{62, 64, 65} {
		words = append(words, graph.Edge{U: u, V: 69}, graph.Edge{U: u, V: 129}, graph.Edge{U: u, V: 195})
	}

	rng := rand.New(rand.NewSource(7))
	randomEdges := func(n, m int) []graph.Edge {
		es := make([]graph.Edge, m)
		for i := range es {
			es[i] = graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
		}
		return es
	}
	// Self loops and every edge at least twice, some three times.
	multi := randomEdges(120, 700)
	multi = append(multi, multi...)
	multi = append(multi, multi[:200]...)
	arcs := randomEdges(150, 1200)

	return []shape{
		plain("star", gen.Star(2000)),
		plain("wheel", build(t, 1500, wheel, graph.Options{})),
		plain("clique", gen.Complete(40)),
		plain("clique-minus-matching", build(t, 40, unmatched, graph.Options{})),
		plain("path-10k", gen.Path(10000)),
		plain("400-components", gen.Disjoint(tiny...)),
		plain("isolated", build(t, 60, sparse, graph.Options{})),
		plain("word-edges", build(t, 201, words, graph.Options{})),
		{"multigraph", build(t, 120, multi, graph.Options{KeepSelfLoops: true, KeepDuplicates: true}), build(t, 120, multi, graph.Options{})},
		plain("directed", build(t, 150, arcs, graph.Options{Directed: true})),
		plain("rmat-12", gen.RMAT(gen.PaperRMAT(12, 3))),
		plain("preferential", gen.PreferentialAttachment(3000, 4, 5)),
	}
}

// layout is one renaming of a shape's vertices (perm[old] = new).
type layout struct {
	name string
	g    *graph.Graph
	perm []int32
}

// layouts returns g as built, under the shipped degree reordering and
// under a seeded uniformly random permutation.
func layouts(t *testing.T, g *graph.Graph) []layout {
	t.Helper()
	n := g.NumVertices()
	identity, random := make([]int32, n), make([]int32, n)
	for v, p := range rand.New(rand.NewSource(1)).Perm(n) {
		identity[v], random[v] = int32(v), int32(p)
	}
	var out []layout
	for _, l := range []layout{{"built", nil, identity}, {"degree", nil, graph.DegreePerm(g)}, {"random", nil, random}} {
		r, _, err := g.Relabel(l.perm)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, layout{l.name, r, l.perm})
	}
	return out
}

// simpleDegrees returns each vertex's number of distinct non-self
// neighbours in the undirected projection of g.
func simpleDegrees(g *graph.Graph) []int64 {
	u := g.Undirected()
	deg := make([]int64, u.NumVertices())
	for v := range deg {
		prev := int32(-1)
		for _, w := range u.Neighbors(int32(v)) {
			if w != prev && w != int32(v) {
				deg[v]++
			}
			prev = w
		}
	}
	return deg
}

// expected is what every entry point must return on one input, derived
// from the oracle's triangle counts and the simple degrees with the one
// final division each of them does: tri[v]/C(d,2) per vertex, and
// Σ tri / wedges (that is, 3 · triangles / wedges) for the transitivity.
type expected struct {
	tri    []int64
	coef   []float64
	global float64
}

func expect(tri, deg []int64) expected {
	e := expected{tri: tri, coef: make([]float64, len(tri))}
	var closed, wedges int64
	for v, d := range deg {
		if d >= 2 {
			e.coef[v] = 2 * float64(tri[v]) / float64(d*(d-1))
		}
		closed += tri[v]
		wedges += d * (d - 1) / 2
	}
	if wedges > 0 {
		e.global = float64(closed) / float64(wedges)
	}
	return e
}

// requireExpected runs Triangles, Coefficients and Global on g, whose
// vertex perm[v] is the reference's vertex v, and compares each with ==.
func requireExpected(t *testing.T, id string, g *graph.Graph, perm []int32, want expected) {
	t.Helper()
	tri, coef := cluster.Triangles(g), cluster.Coefficients(g)
	for v, nv := range perm {
		if tri[nv] != want.tri[v] || coef[nv] != want.coef[v] {
			t.Fatalf("%s: vertex %d: tri %d coef %v, oracle %d %v", id, v, tri[nv], coef[nv], want.tri[v], want.coef[v])
		}
	}
	if got := cluster.Global(g); got != want.global {
		t.Fatalf("%s: Global = %v, oracle %v", id, got, want.global)
	}
}

// oracle returns the reference values on simple, a graph without repeated
// arcs: the per-arc kernel's integers, checked against the retired merge
// kernel's and, where that is affordable, a cubic brute force.
func oracle(t *testing.T, name string, simple *graph.Graph) expected {
	t.Helper()
	want := cluster.OracleTriangles(simple)
	merged, _ := cluster.MergeForward(simple)
	for v, c := range merged {
		if c != want[v] {
			t.Fatalf("%s: merge kernel tri[%d] = %d, per-arc oracle %d", name, v, c, want[v])
		}
	}
	if simple.NumVertices() <= 200 {
		for v, c := range cluster.BruteTriangles(simple.Undirected()) {
			if c != want[v] {
				t.Fatalf("%s: oracle tri[%d] = %d, brute force %d", name, v, want[v], c)
			}
		}
	}
	return expect(want, simpleDegrees(simple))
}

// TestForwardMatchesReferences is the exactness contract: on every shape,
// layout and worker count the kernel returns the integers of the retained
// kernels, and coefficients and transitivity equal to those computed from
// them, compared with ==, since every side does one final division of the
// same integers.
func TestForwardMatchesReferences(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sh := range shapes(t) {
		want := oracle(t, sh.name, sh.simple)
		for _, l := range layouts(t, sh.g) {
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				requireExpected(t, fmt.Sprintf("%s/%s/P=%d", sh.name, l.name, procs), l.g, l.perm, want)
			}
		}
	}
}

// FuzzTrianglesMatchOracle turns bytes into a small multigraph — a vertex
// count up to 256, so rows cross bitmap words; a flags byte choosing
// directed; then arc endpoints, self loops and repeats kept — and holds
// Triangles, Coefficients and Global to the oracle on its simple graph.
func FuzzTrianglesMatchOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])
		directed := data[1]&1 != 0
		var edges []graph.Edge
		for i := 2; i+1 < len(data); i += 2 {
			edges = append(edges, graph.Edge{U: int32(int(data[i]) % n), V: int32(int(data[i+1]) % n)})
		}
		g := build(t, n, edges, graph.Options{Directed: directed, KeepSelfLoops: true, KeepDuplicates: true})
		simple := build(t, n, edges, graph.Options{Directed: directed})
		identity := make([]int32, n)
		for v := range identity {
			identity[v] = int32(v)
		}
		requireExpected(t, "fuzz", g, identity, oracle(t, "fuzz", simple))
	})
}

// TestMultigraphIsItsSimpleGraph pins the definition on the smallest case:
// triangle 0-1-2 with tail 2-3, edge {0,1} doubled and a loop on 2. The
// per-arc kernel counted the repeat into the degree (coefficients 1/3, 1/3
// for vertices 0 and 1, transitivity 0.23).
func TestMultigraphIsItsSimpleGraph(t *testing.T) {
	g := build(t, 4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 0}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}, {U: 2, V: 2}},
		graph.Options{KeepSelfLoops: true, KeepDuplicates: true})
	tri, coef := cluster.Triangles(g), cluster.Coefficients(g)
	wantTri, wantCoef := []int64{1, 1, 1, 0}, []float64{1, 1, 1.0 / 3, 0}
	for v := range wantTri {
		if tri[v] != wantTri[v] || coef[v] != wantCoef[v] {
			t.Fatalf("tri %v coef %v, want %v %v", tri, coef, wantTri, wantCoef)
		}
	}
	if got := cluster.Global(g); got != 0.6 {
		t.Fatalf("Global = %v, want 0.6", got)
	}
}
