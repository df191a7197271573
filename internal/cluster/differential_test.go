package cluster_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"graphct/internal/cluster"
	"graphct/internal/gen"
	"graphct/internal/graph"
	"graphct/internal/stream"
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

// TestForwardMatchesReferences is the exactness contract: on every shape,
// layout and worker count the kernel returns the integers of the retained
// per-arc kernel (and of the cubic brute force where that is affordable),
// and the triangles, coefficients and transitivity stream.FromGraph
// maintains for the same input — compared with ==, since both sides do one
// final division of the same integers.
func TestForwardMatchesReferences(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sh := range shapes(t) {
		want := cluster.OracleTriangles(sh.simple)
		var sum int64
		for _, c := range want {
			sum += c
		}
		if sh.simple.NumVertices() <= 200 {
			for v, c := range cluster.BruteTriangles(sh.simple.Undirected()) {
				if c != want[v] {
					t.Fatalf("%s: oracle tri[%d] = %d, brute force %d", sh.name, v, want[v], c)
				}
			}
		}
		for _, l := range layouts(t, sh.g) {
			st := stream.FromGraph(l.g)
			stTri := st.Triangles()
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				id := fmt.Sprintf("%s/%s/P=%d", sh.name, l.name, procs)
				tri, coef := cluster.Triangles(l.g), cluster.Coefficients(l.g)
				for v, nv := range l.perm {
					if tri[nv] != want[v] {
						t.Fatalf("%s: tri[%d] = %d, oracle %d", id, v, tri[nv], want[v])
					}
					var stCoef float64
					if d := int64(st.Degree(nv)); d >= 2 {
						stCoef = 2 * float64(stTri[nv]) / float64(d*(d-1))
					}
					if tri[nv] != stTri[nv] || coef[nv] != stCoef {
						t.Fatalf("%s: vertex %d: tri %d coef %v, stream %d %v", id, v, tri[nv], coef[nv], stTri[nv], stCoef)
					}
				}
				if got := cluster.Global(l.g); got != st.GlobalCoefficient() {
					t.Fatalf("%s: Global = %v, stream %v", id, got, st.GlobalCoefficient())
				}
			}
		}
	}
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
	if st := stream.FromGraph(g); st.NumEdges() != 4 || st.GlobalCoefficient() != 0.6 {
		t.Fatalf("stream.FromGraph: %d edges, transitivity %v; want 4, 0.6", st.NumEdges(), st.GlobalCoefficient())
	}
}
