package bc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"graphct/internal/gen"
	"graphct/internal/graph"
	"graphct/internal/testutil"
)

// bruteWeighted enumerates all simple paths between every pair on a tiny
// graph, keeps the minimum-weight ones, and credits interior vertices —
// fully independent of the Brandes/Dijkstra machinery.
func bruteWeighted(g *graph.Graph) []float64 {
	n := g.NumVertices()
	scores := make([]float64, n)
	type best struct {
		w     int64
		count float64
		inter []float64
	}
	for s := int32(0); s < int32(n); s++ {
		for t := int32(0); t < int32(n); t++ {
			if s == t {
				continue
			}
			b := best{w: -1, inter: make([]float64, n)}
			visited := make([]bool, n)
			var walk func(v int32, weight int64, path []int32)
			walk = func(v int32, weight int64, path []int32) {
				if v == t {
					switch {
					case b.w == -1 || weight < b.w:
						b.w = weight
						b.count = 1
						for i := range b.inter {
							b.inter[i] = 0
						}
						for _, p := range path[1:] {
							b.inter[p]++
						}
					case weight == b.w:
						b.count++
						for _, p := range path[1:] {
							b.inter[p]++
						}
					}
					return
				}
				nbr := g.Neighbors(v)
				wts := g.Weights(v)
				for i, u := range nbr {
					if visited[u] || u == v {
						continue
					}
					w := int64(1)
					if wts != nil {
						w = int64(wts[i])
					}
					visited[u] = true
					walk(u, weight+w, append(path, u))
					visited[u] = false
				}
			}
			visited[s] = true
			walk(s, 0, []int32{s})
			if b.w >= 0 {
				for v := 0; v < n; v++ {
					if int32(v) != s && int32(v) != t && b.inter[v] > 0 {
						scores[v] += b.inter[v] / b.count
					}
				}
			}
		}
	}
	return scores
}

func TestWeightedShortcutChangesRanking(t *testing.T) {
	// 0 -1- 1 -1- 2 and a heavy direct edge 0 -5- 2: the light route via
	// 1 wins, so vertex 1 brokers the (0,2) pair in both directions.
	g, _ := graph.FromWeightedEdges(3, []graph.WeightedEdge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 5},
	}, graph.Options{})
	r, err := WeightedCentrality(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AlmostEqual(r.Scores[1], 2) {
		t.Fatalf("BC(1) = %v, want 2", r.Scores[1])
	}
	// Unweighted, the triangle has no interior vertices at all.
	plain, _ := graph.FromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}, graph.Options{})
	if Exact(plain).Scores[1] != 0 {
		t.Fatal("unweighted triangle should have zero BC")
	}
}

func TestWeightedUnitEqualsUnweighted(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var wes []graph.WeightedEdge
		var es []graph.Edge
		for i := 0; i < 60; i++ {
			u, v := int32(rng.Intn(20)), int32(rng.Intn(20))
			wes = append(wes, graph.WeightedEdge{U: u, V: v, W: 1})
			es = append(es, graph.Edge{U: u, V: v})
		}
		wg, err := graph.FromWeightedEdges(20, wes, graph.Options{})
		if err != nil {
			return false
		}
		pg, err := graph.FromEdges(20, es, graph.Options{})
		if err != nil {
			return false
		}
		wr, err := WeightedCentrality(wg, Options{})
		if err != nil {
			return false
		}
		pr := Exact(pg)
		for v := range pr.Scores {
			if !testutil.AlmostEqual(wr.Scores[v], pr.Scores[v]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var wes []graph.WeightedEdge
		for i := 0; i < 14; i++ {
			wes = append(wes, graph.WeightedEdge{
				U: int32(rng.Intn(8)), V: int32(rng.Intn(8)), W: 1 + rng.Int31n(4),
			})
		}
		g, err := graph.FromWeightedEdges(8, wes, graph.Options{})
		if err != nil {
			return false
		}
		want := bruteWeighted(g)
		got, err := WeightedCentrality(g, Options{})
		if err != nil {
			return false
		}
		for v := range want {
			if !testutil.AlmostEqual(got.Scores[v], want[v]) {
				t.Logf("seed=%d v=%d got %v want %v", seed, v, got.Scores[v], want[v])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedSampledFullEqualsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var wes []graph.WeightedEdge
	for i := 0; i < 120; i++ {
		wes = append(wes, graph.WeightedEdge{
			U: int32(rng.Intn(40)), V: int32(rng.Intn(40)), W: 1 + rng.Int31n(9),
		})
	}
	g, _ := graph.FromWeightedEdges(40, wes, graph.Options{})
	exact, err := WeightedCentrality(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := WeightedCentrality(g, Options{Samples: 40})
	if err != nil {
		t.Fatal(err)
	}
	for v := range exact.Scores {
		if !testutil.AlmostEqual(exact.Scores[v], full.Scores[v]) {
			t.Fatalf("full sampling differs at %d", v)
		}
	}
	sampled, err := WeightedCentrality(g, Options{Samples: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(sampled.Sources) != 10 {
		t.Fatalf("sources = %d", len(sampled.Sources))
	}
}

func TestWeightedErrors(t *testing.T) {
	neg, _ := graph.FromWeightedEdges(2, []graph.WeightedEdge{{U: 0, V: 1, W: -1}}, graph.Options{})
	if _, err := WeightedCentrality(neg, Options{}); err == nil {
		t.Fatal("negative weight accepted")
	}
	ok, _ := graph.FromWeightedEdges(2, []graph.WeightedEdge{{U: 0, V: 1, W: 1}}, graph.Options{})
	if _, err := WeightedCentrality(ok, Options{K: 1}); err == nil {
		t.Fatal("weighted k-betweenness accepted")
	}
}

func TestWeightedUnweightedGraphDelegates(t *testing.T) {
	g := gen.Star(10)
	r, err := WeightedCentrality(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.AlmostEqual(r.Scores[0], 9*8) {
		t.Fatalf("delegated hub = %v", r.Scores[0])
	}
}
