package bfs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"graphct/internal/gen"
	"graphct/internal/graph"
)

type shape struct {
	name string
	g    *graph.Graph
	srcs []int32
	// sparseBounds limits the depth bounds tried to both ends of 0..D+1,
	// for shapes whose depth makes every bound too slow.
	sparseBounds bool
}

// splitArcs is where the tests that exercise the parallel steps put
// inlineArcs: low enough that the graphs below split their larger levels.
const splitArcs = 1 << 10

func splitSmallLevels(t testing.TB) {
	old := inlineArcs
	inlineArcs = splitArcs
	t.Cleanup(func() { inlineArcs = old })
}

func mustEdges(t testing.TB, n int, edges []graph.Edge, opt graph.Options) *graph.Graph {
	t.Helper()
	g, err := graph.FromEdges(n, edges, opt)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// shapes are the inputs the engine is compared with the oracle on: the
// structures that stress one direction or the other, every row encoding,
// and both edge semantics.
func shapes(t testing.TB) []shape {
	tiny := make([]*graph.Graph, 0, 400)
	for i := 0; i < 200; i++ {
		tiny = append(tiny, gen.Path(3), gen.Ring(4))
	}
	rmat := gen.PaperRMAT(14, 5) // levels past splitArcs: the parallel steps run
	noisy := gen.RMATEdges(gen.PaperRMAT(9, 2))
	for v := int32(0); v < 64; v++ {
		noisy = append(noisy, graph.Edge{U: v, V: v}, graph.Edge{U: v, V: v + 1}, graph.Edge{U: v, V: v + 1})
	}
	return []shape{
		// The hub's arcs make one parallel top-down level out of a
		// one-vertex frontier.
		{name: "star", g: gen.Star(splitArcs + 5), srcs: []int32{0, 7}},
		{name: "path10k", g: gen.Path(10000), srcs: []int32{0, 5000}, sparseBounds: true},
		{name: "clique", g: gen.Complete(200), srcs: []int32{7}},
		{name: "tiny-components", g: gen.Disjoint(tiny...), srcs: []int32{0, 3, 1399}},
		{name: "isolated-source", g: mustEdges(t, 6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, graph.Options{}), srcs: []int32{5}},
		{name: "loops-and-multi-edges", g: mustEdges(t, 512, noisy, graph.Options{KeepSelfLoops: true, KeepDuplicates: true}), srcs: []int32{0, 63, 300}},
		{name: "rmat", g: gen.RMAT(rmat), srcs: []int32{0, 4095}},
		{name: "rmat-directed", g: mustEdges(t, 1<<14, gen.RMATEdges(rmat), graph.Options{Directed: true}), srcs: []int32{0}},
	}
}

// checkAgainstOracle compares one engine search with the oracle's.
func checkAgainstOracle(t *testing.T, g *graph.Graph, src int32, bound int) (depth int) {
	t.Helper()
	want := oracleSearch(g, src, bound)
	got := SearchBounded(g, src, bound)
	sum := Summarize(g, src, bound)
	if got.Depth != want.Depth || got.NumReached() != want.NumReached() {
		t.Fatalf("src %d bound %d: depth %d reached %d, oracle depth %d reached %d",
			src, bound, got.Depth, got.NumReached(), want.Depth, want.NumReached())
	}
	if sum != (Summary{Reached: want.NumReached(), Depth: want.Depth}) {
		t.Fatalf("src %d bound %d: summary %+v, oracle depth %d reached %d", src, bound, sum, want.Depth, want.NumReached())
	}
	for v := range want.Level {
		if got.Level[v] != want.Level[v] {
			t.Fatalf("src %d bound %d: level[%d] = %d, oracle %d", src, bound, v, got.Level[v], want.Level[v])
		}
		p := got.Parent[v]
		switch {
		case got.Level[v] == Unreached:
			if p != Unreached {
				t.Fatalf("src %d bound %d: unreached %d has parent %d", src, bound, v, p)
			}
		case int32(v) == src:
			if p != src {
				t.Fatalf("src %d: source's parent is %d", src, p)
			}
		case p < 0 || got.Level[p] != got.Level[v]-1 || !g.HasEdge(p, int32(v)):
			t.Fatalf("src %d bound %d: parent[%d] = %d is not an in-neighbor one level up", src, bound, v, p)
		}
	}
	seen := make([]bool, len(want.Level))
	for i, v := range got.Order {
		if seen[v] || got.Level[v] == Unreached || (i > 0 && got.Level[v] < got.Level[got.Order[i-1]]) {
			t.Fatalf("src %d bound %d: order[%d] = %d repeats, is unreached or breaks level order", src, bound, i, v)
		}
		seen[v] = true
	}
	return want.Depth
}

// TestEngineMatchesOracle is the differential test: every shape, every
// source, every depth bound 0..D+1 and unbounded, at one, two and four
// workers (two and four run the parallel steps; -race checks them).
func TestEngineMatchesOracle(t *testing.T) {
	splitSmallLevels(t)
	all := shapes(t)
	for _, procs := range []int{1, 2, 4} {
		procs := procs
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, sh := range all {
				sh := sh
				t.Run(sh.name, func(t *testing.T) {
					for _, src := range sh.srcs {
						full := checkAgainstOracle(t, sh.g, src, -1)
						for bound := 0; bound <= full+1; bound++ {
							if sh.sparseBounds && bound > 2 && bound < full-1 {
								continue
							}
							checkAgainstOracle(t, sh.g, src, bound)
						}
					}
				})
			}
		})
	}
}

// examinedShare runs one serial search and returns arcs read / arcs.
func examinedShare(g *graph.Graph, src int32) float64 {
	ws := new(workspace)
	ws.summarize(g, src, -1, 1)
	return float64(ws.examined) / float64(g.NumArcs())
}

// The bottom-up step is what makes a search read fewer arcs than the graph
// has; top-down alone reads every arc of the component.
func TestBottomUpSkipsArcs(t *testing.T) {
	und := gen.RMAT(gen.PaperRMAT(12, 5))
	if share := examinedShare(und, 0); share > 0.5 {
		t.Fatalf("undirected R-MAT: read %.2f of the arcs, want under half", share)
	}
	if share := examinedShare(gen.Path(1000), 0); share != 1 {
		t.Fatalf("path: read %.2f of the arcs, want all of them exactly once", share)
	}
}

// Directed graphs run top-down only: a bottom-up step would follow
// out-arcs backwards. Every arc out of a reached vertex is read once.
func TestDirectedStaysTopDown(t *testing.T) {
	edges := gen.RMATEdges(gen.PaperRMAT(12, 5))
	d := mustEdges(t, 1<<12, edges, graph.Options{Directed: true})
	r := Search(d, 0)
	var outArcs int64
	for _, v := range r.Order {
		outArcs += int64(d.Degree(v))
	}
	ws := new(workspace)
	ws.summarize(d, 0, -1, 1)
	if ws.examined != outArcs {
		t.Fatalf("directed search read %d arcs, the reached vertices have %d", ws.examined, outArcs)
	}
	chain := mustEdges(t, 3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, graph.Options{Directed: true})
	if got := Summarize(chain, 2, -1); got != (Summary{Reached: 1, Depth: 0}) {
		t.Fatalf("search against the arcs reached %+v", got)
	}
}

// Workspaces are pooled across searches and graphs: interleaved searches
// over graphs of different sizes must see no state from one another.
func TestPooledWorkspaceIsolation(t *testing.T) {
	big, small := gen.RMAT(gen.PaperRMAT(11, 3)), gen.Disjoint(gen.Complete(90), gen.Path(37))
	type ref struct {
		sum   Summary
		level []int32
	}
	fresh := func(g *graph.Graph, src int32) ref {
		n := g.NumVertices()
		level := make([]int32, n)
		fill(level)
		order, depth := new(workspace).search(g, src, -1, level, nil, make([]int32, 0, n), 1)
		return ref{Summary{Reached: len(order), Depth: depth}, level}
	}
	graphs := []*graph.Graph{big, small}
	want := [2][8]ref{}
	for gi, g := range graphs {
		for s := range want[gi] {
			want[gi][s] = fresh(g, int32(s*11))
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				gi, s := (w+i)%2, (w+i/2)%8
				g, src, ref := graphs[gi], int32(s*11), want[gi][s]
				if got := Summarize(g, src, -1); got != ref.sum {
					t.Errorf("graph %d src %d: pooled summary %+v, fresh workspace %+v", gi, src, got, ref.sum)
					return
				}
				r := Search(g, src)
				for v, l := range ref.level {
					if r.Level[v] != l {
						t.Errorf("graph %d src %d: pooled level[%d] = %d, fresh workspace %d", gi, src, v, r.Level[v], l)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestSummarizeWarmAllocs(t *testing.T) {
	g := gen.RMAT(gen.PaperRMAT(10, 1))
	Summarize(g, 0, -1)
	src := int32(0)
	if allocs := testing.AllocsPerRun(50, func() {
		Summarize(g, src, -1)
		src = (src + 97) % int32(g.NumVertices())
	}); allocs > 2 {
		t.Fatalf("warm Summarize allocates %.0f times a search, want at most 2", allocs)
	}
}

func TestEccentricities(t *testing.T) {
	g := gen.Disjoint(gen.Path(9), gen.Ring(10))
	srcs := []int32{0, 4, 8, 9, 12}
	got, err := Eccentricities(context.Background(), g, srcs)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{8, 4, 8, 5, 5} {
		if got[i] != want {
			t.Fatalf("eccentricity of %d = %d, want %d", srcs[i], got[i], want)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Eccentricities(ctx, g, srcs); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled call returned %v", err)
	}
}
