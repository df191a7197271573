package kcore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"graphct/internal/gen"
	"graphct/internal/graph"
)

// requireOracle holds Decompose to the round-scan oracle exactly, and the
// profile to both Size and Extract's counts for every k from 0 to two past
// the degeneracy: one past it is the profile's last row, two past it is
// clamped to that row.
func requireOracle(t *testing.T, g *graph.Graph) {
	t.Helper()
	core := Decompose(g)
	if want := oracleDecompose(g); !slices.Equal(core, want) {
		t.Fatalf("core = %v, oracle %v", core, want)
	}
	maxCore := int32(0)
	for _, c := range core {
		maxCore = max(maxCore, c)
	}
	p := NewProfile(g, core)
	if len(p.Vertices) != int(maxCore)+2 || len(p.Edges) != int(maxCore)+2 {
		t.Fatalf("profile has %d, %d rows; degeneracy %d", len(p.Vertices), len(p.Edges), maxCore)
	}
	for k := int32(0); k <= maxCore+2; k++ {
		sub, _ := Extract(g, k)
		v, e := Size(g, core, k)
		if v != sub.NumVertices() || e != sub.NumEdges() {
			t.Fatalf("k=%d: Size = %d vertices, %d edges; Extract %d, %d", k, v, e, sub.NumVertices(), sub.NumEdges())
		}
		if pv, pe := p.At(int(k)); pv != v || pe != e {
			t.Fatalf("k=%d: profile = %d vertices, %d edges; Size %d, %d", k, pv, pe, v, e)
		}
	}
}

// randomGraph draws m edges over n vertices with loops and repeats left in
// whenever opt keeps them.
func randomGraph(t testing.TB, n, m int, seed int64, opt graph.Options) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: int32(rng.Intn(n)), V: int32(rng.Intn(n))}
	}
	g, err := graph.FromEdges(n, edges, opt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDecomposeMatchesOracle(t *testing.T) {
	var tiny []*graph.Graph
	for i := 0; i < 400; i++ {
		switch i % 4 {
		case 0:
			tiny = append(tiny, gen.Path(2))
		case 1:
			tiny = append(tiny, gen.Complete(3))
		case 2:
			tiny = append(tiny, gen.Star(4))
		default:
			tiny = append(tiny, gen.Complete(4))
		}
	}
	isolated, err := graph.FromEdges(100, []graph.Edge{{U: 3, V: 7}, {U: 7, V: 9}, {U: 9, V: 3}, {U: 50, V: 51}}, graph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rmat := gen.RMAT(gen.PaperRMAT(12, 5))
	reordered, _, err := graph.Layout{Reorder: graph.ReorderDegree}.Apply(rmat)
	if err != nil {
		t.Fatal(err)
	}
	multi := graph.Options{KeepSelfLoops: true, KeepDuplicates: true}
	shapes := []struct {
		name string
		g    *graph.Graph
	}{
		{"star", gen.Star(50)},
		{"path", gen.Path(50)},
		{"clique", gen.Complete(12)},
		{"400-components", gen.Disjoint(tiny...)},
		{"isolated", isolated},
		{"empty", graph.Empty(0, false)},
		{"loops-multi", randomGraph(t, 60, 400, 1, multi)},
		{"loops-multi-dense", randomGraph(t, 12, 300, 2, multi)},
		{"directed", randomGraph(t, 60, 400, 3, graph.Options{Directed: true})},
		{"directed-loops-multi", randomGraph(t, 40, 500, 4, graph.Options{Directed: true, KeepSelfLoops: true, KeepDuplicates: true})},
		{"rmat12", rmat},
		{"rmat12-degree", reordered},
	}
	for _, s := range shapes {
		t.Run(s.name, func(t *testing.T) { requireOracle(t, s.g) })
	}
}

// FuzzDecompose turns bytes into a small graph — a vertex count, a flags
// byte choosing directed, self loops and repeats, then edge endpoints — and
// holds Decompose to the oracle and the profile to Size and Extract.
func FuzzDecompose(f *testing.F) {
	f.Add([]byte{9, 0, 0, 1, 1, 2, 2, 0, 2, 3, 3, 4, 4, 5, 5, 3})
	f.Add([]byte{12, 6, 0, 1, 0, 1, 1, 1, 1, 2, 2, 0, 3, 0, 4, 5, 6, 7, 8, 8, 9, 10})
	f.Add([]byte{20, 7, 3, 1, 1, 3, 0, 1, 2, 3, 4, 5, 6, 7, 0, 8, 0, 9, 0, 10, 11, 12, 12, 13})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%40
		opt := graph.Options{Directed: data[1]&1 != 0, KeepSelfLoops: data[1]&2 != 0, KeepDuplicates: data[1]&4 != 0}
		var edges []graph.Edge
		for i := 2; i+1 < len(data); i += 2 {
			edges = append(edges, graph.Edge{U: int32(int(data[i]) % n), V: int32(int(data[i+1]) % n)})
		}
		g, err := graph.FromEdges(n, edges, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireOracle(t, g)
	})
}

var benchSink int32

// BenchmarkDecompose times the peeling alone on degree-reordered R-MAT
// graphs: scale 14 is the graph the server's kcores requests peel, scale
// 16 the batch pipeline's. arcs/s is stored arcs peeled per second.
func BenchmarkDecompose(b *testing.B) {
	for _, scale := range []int{14, 16} {
		g, _, err := graph.Layout{Reorder: graph.ReorderDegree}.Apply(gen.RMAT(gen.PaperRMAT(scale, 1)))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("rmat%d-degree", scale), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += Decompose(g)[0]
			}
			b.ReportMetric(float64(g.NumArcs())*float64(b.N)/b.Elapsed().Seconds(), "arcs/s")
		})
	}
}
