package bc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"graphct/internal/gen"
	"graphct/internal/graph"
	"graphct/internal/testutil"
)

// bruteDirected computes directed BC by the σ formulation over directed
// all-pairs BFS.
func bruteDirected(g *graph.Graph) []float64 {
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

func mustDirected(t *testing.T, g *graph.Graph, opt Options) *Result {
	t.Helper()
	r, err := DirectedCentrality(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDirectedChain(t *testing.T) {
	// 0 -> 1 -> 2 -> 3: vertex 1 carries pairs (0,2),(0,3); vertex 2
	// carries (0,3),(1,3). No reverse paths exist.
	g, _ := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}}, graph.Options{Directed: true})
	r := mustDirected(t, g, Options{})
	want := []float64{0, 2, 2, 0}
	for v, w := range want {
		if !testutil.AlmostEqual(r.Scores[v], w) {
			t.Fatalf("BC(%d) = %v, want %v", v, r.Scores[v], w)
		}
	}
}

func TestDirectedVsUndirectedDiffer(t *testing.T) {
	// On a directed cycle every vertex lies on many directed shortest
	// paths; the undirected projection has shorter two-way routes.
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 0}}
	d, _ := graph.FromEdges(5, edges, graph.Options{Directed: true})
	dir := mustDirected(t, d, Options{})
	und := Exact(d)
	if testutil.AlmostEqual(dir.Scores[0], und.Scores[0]) {
		t.Fatalf("directed (%v) and undirected (%v) should differ on a cycle",
			dir.Scores[0], und.Scores[0])
	}
	// Directed 5-cycle: each pair (s,t), s != t has exactly one path;
	// interior vertices per pair = dist-1; per vertex total = 0+1+2+3 = 6.
	if !testutil.AlmostEqual(dir.Scores[0], 6) {
		t.Fatalf("directed cycle BC = %v, want 6", dir.Scores[0])
	}
}

func TestDirectedMatchesBrute(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var edges []graph.Edge
		for i := 0; i < 60; i++ {
			edges = append(edges, graph.Edge{U: int32(rng.Intn(20)), V: int32(rng.Intn(20))})
		}
		g, err := graph.FromEdges(20, edges, graph.Options{Directed: true})
		if err != nil {
			return false
		}
		want := bruteDirected(g)
		got := mustDirected(t, g, Options{}).Scores
		for v := range want {
			if !testutil.AlmostEqual(got[v], want[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectedUndirectedInputFallsBack(t *testing.T) {
	g := gen.Ring(8)
	a := mustDirected(t, g, Options{}).Scores
	b := Exact(g).Scores
	for v := range a {
		if !testutil.AlmostEqual(a[v], b[v]) {
			t.Fatal("undirected fallback differs from Centrality")
		}
	}
}

func TestDirectedSampled(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}, {U: 1, V: 3}}
	g, _ := graph.FromEdges(4, edges, graph.Options{Directed: true})
	full := mustDirected(t, g, Options{Samples: 4}).Scores
	exact := mustDirected(t, g, Options{}).Scores
	for v := range exact {
		if !testutil.AlmostEqual(full[v], exact[v]) {
			t.Fatal("full sampling differs from exact")
		}
	}
	sampled := mustDirected(t, g, Options{Samples: 2, Seed: 3})
	if len(sampled.Sources) != 2 {
		t.Fatalf("sources = %v", sampled.Sources)
	}
	for _, s := range sampled.Scores {
		if math.IsNaN(s) || s < 0 {
			t.Fatalf("bad sampled score %v", s)
		}
	}
}

func TestDirectedRejectsK(t *testing.T) {
	g, _ := graph.FromEdges(2, []graph.Edge{{U: 0, V: 1}}, graph.Options{Directed: true})
	if _, err := DirectedCentrality(g, Options{K: 1}); err == nil {
		t.Fatal("directed k-betweenness accepted")
	}
}
