package core

import (
	"os"
	"path/filepath"
	"testing"

	"graphct/internal/gen"
	"graphct/internal/graph"
)

func TestDiameterCachedAndConfigurable(t *testing.T) {
	tk := New(gen.Path(50), WithSeed(3), WithDiameterSampling(50, 1))
	d := tk.Diameter()
	if d.LongestPath != 49 || d.Estimate != 49 {
		t.Fatalf("diameter = %+v", d)
	}
	if tk.Diameter() != d {
		t.Fatal("diameter not cached")
	}
}

func TestComponentsMemoizedAndInvalidated(t *testing.T) {
	tk := New(gen.Disjoint(gen.Ring(6), gen.Path(3)))
	c1 := tk.Components()
	if c1.Count != 2 {
		t.Fatalf("components = %d", c1.Count)
	}
	if tk.Components() != c1 {
		t.Fatal("components not memoized")
	}
	if err := tk.ExtractComponent(1); err != nil {
		t.Fatal(err)
	}
	if tk.Components() == c1 {
		t.Fatal("memoized components not invalidated by extraction")
	}
	if tk.Graph().NumVertices() != 6 {
		t.Fatalf("largest component = %v", tk.Graph())
	}
}

func TestExtractComponentErrors(t *testing.T) {
	tk := New(gen.Ring(4))
	if err := tk.ExtractComponent(2); err == nil {
		t.Fatal("rank beyond census accepted")
	}
	if err := tk.ExtractComponent(0); err == nil {
		t.Fatal("rank 0 accepted")
	}
}

func TestSaveRestore(t *testing.T) {
	tk := New(gen.Disjoint(gen.Ring(6), gen.Path(3)))
	tk.Save()
	if err := tk.ExtractComponent(2); err != nil {
		t.Fatal(err)
	}
	if tk.Graph().NumVertices() != 3 {
		t.Fatalf("second component = %v", tk.Graph())
	}
	if len(tk.stack) != 1 {
		t.Fatalf("stack depth = %d", len(tk.stack))
	}
	if err := tk.Restore(); err != nil {
		t.Fatal(err)
	}
	if tk.Graph().NumVertices() != 9 {
		t.Fatal("restore did not bring back full graph")
	}
	if err := tk.Restore(); err == nil {
		t.Fatal("restore on empty stack should error")
	}
}

func TestOrigIDComposition(t *testing.T) {
	// Disjoint(Path(3), Ring(6)): ring occupies ids 3..8.
	tk := New(gen.Disjoint(gen.Path(3), gen.Ring(6)))
	if err := tk.ExtractComponent(1); err != nil { // ring
		t.Fatal(err)
	}
	if tk.OrigID(0) != 3 {
		t.Fatalf("first-level orig = %d, want 3", tk.OrigID(0))
	}
	tk.KCores(2) // whole ring survives; ids compose through identity
	if tk.OrigID(0) != 3 {
		t.Fatalf("composed orig = %d, want 3", tk.OrigID(0))
	}
	// Second extraction must compose: extract component of the ring
	// (itself), ids still map to 3..8.
	if err := tk.ExtractComponent(1); err != nil {
		t.Fatal(err)
	}
	if tk.OrigID(5) != 8 {
		t.Fatalf("orig(5) = %d, want 8", tk.OrigID(5))
	}
}

func TestKCentralityAndApprox(t *testing.T) {
	tk := New(gen.Star(20), WithSeed(5))
	exact := tk.KCentrality(0, 0)
	if exact.Scores[0] != 19*18 {
		t.Fatalf("hub BC = %v", exact.Scores[0])
	}
	k1 := tk.KCentrality(1, 0)
	if k1.Scores[0] != exact.Scores[0] {
		t.Fatalf("k=1 star hub = %v, want %v", k1.Scores[0], exact.Scores[0])
	}
	appr := tk.BetweennessApprox(10)
	if len(appr.Sources) != 10 {
		t.Fatalf("approx sources = %d", len(appr.Sources))
	}
}

func TestApproxCentralityGuaranteed(t *testing.T) {
	tk := New(gen.Star(40), WithSeed(5))
	res := tk.ApproxCentrality(0.05, 0.1, 0)
	if res.Guarantee.Epsilon != 0.05 || res.Guarantee.Delta != 0.1 {
		t.Fatalf("guarantee = %+v", res.Guarantee)
	}
	if res.Guarantee.SamplesUsed <= 0 {
		t.Fatalf("no samples used: %+v", res.Guarantee)
	}
	// The hub's normalized score is (n-2)/n ≈ 0.95; ε=0.05 forces it to
	// rank first.
	if top := res.TopK(1); top[0] != 0 {
		t.Fatalf("star top-1 = %v, want hub 0", top)
	}
	// Deterministic per toolkit seed.
	again := tk.ApproxCentrality(0.05, 0.1, 0)
	for v := range res.Scores {
		if res.Scores[v] != again.Scores[v] {
			t.Fatalf("re-run differs at vertex %d", v)
		}
	}
}

func TestKCoresAndClustering(t *testing.T) {
	tk := New(gen.Disjoint(gen.Complete(4), gen.Path(5)))
	cores := tk.CoreNumbers()
	if cores[0] != 3 {
		t.Fatalf("core numbers = %v", cores)
	}
	tk.KCores(2)
	if tk.Graph().NumVertices() != 4 {
		t.Fatalf("2-core = %v", tk.Graph())
	}
	coef := tk.ClusteringCoefficients()
	for _, c := range coef {
		if c != 1 {
			t.Fatalf("K4 coefficients = %v", coef)
		}
	}
	if tk.GlobalClustering() != 1 {
		t.Fatal("K4 transitivity != 1")
	}
}

func TestReciprocalCoreAndUndirected(t *testing.T) {
	d, _ := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 0}, {U: 2, V: 0}, {U: 2, V: 3}}, graph.Options{Directed: true})
	tk := New(d)
	tk.Save()
	tk.ReciprocalCore()
	if tk.Graph().NumEdges() != 1 || tk.Graph().Directed() {
		t.Fatalf("reciprocal core = %v", tk.Graph())
	}
	tk.Restore()
	tk.ToUndirected()
	if tk.Graph().Directed() || tk.Graph().NumEdges() != 3 {
		t.Fatalf("undirected = %v", tk.Graph())
	}
}

func TestDropIsolated(t *testing.T) {
	g, _ := graph.FromEdges(10, []graph.Edge{{U: 0, V: 9}}, graph.Options{})
	tk := New(g)
	tk.DropIsolated()
	if tk.Graph().NumVertices() != 2 {
		t.Fatalf("DropIsolated = %v", tk.Graph())
	}
	if tk.OrigID(1) != 9 {
		t.Fatalf("orig = %d", tk.OrigID(1))
	}
}

func TestBFSBounded(t *testing.T) {
	tk := New(gen.Path(10))
	r := tk.BFS(0, 4)
	if r.NumReached() != 5 {
		t.Fatalf("bounded BFS reached %d", r.NumReached())
	}
	full := tk.BFS(0, -1)
	if full.NumReached() != 10 {
		t.Fatal("unbounded BFS incomplete")
	}
	for _, depth := range []int{-1, 0, 4, 20} {
		r, s := tk.BFS(3, depth), tk.BFSSummary(3, depth)
		if s.Reached != r.NumReached() || s.Depth != r.Depth {
			t.Fatalf("depth %d: summary %+v, search reached %d depth %d", depth, s, r.NumReached(), r.Depth)
		}
	}
}

func TestDegreeStatsAndHistogram(t *testing.T) {
	tk := New(gen.Star(5))
	st := tk.DegreeStats()
	if st.Max != 4 || st.N != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLoadDIMACSAndEdgeList(t *testing.T) {
	dir := t.TempDir()
	dimacsPath := filepath.Join(dir, "g.dimacs")
	if err := os.WriteFile(dimacsPath, []byte("p edge 3 2\ne 1 2 1\ne 2 3 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tk, err := LoadDIMACS(dimacsPath, false, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if tk.Graph().NumEdges() != 2 {
		t.Fatal("dimacs load wrong")
	}
	elPath := filepath.Join(dir, "g.el")
	if err := os.WriteFile(elPath, []byte("0 1\n1 2\n2 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tk, err = LoadEdgeList(elPath, true)
	if err != nil {
		t.Fatal(err)
	}
	if !tk.Graph().Directed() || tk.Graph().NumArcs() != 3 {
		t.Fatal("edge list load wrong")
	}
	if _, err := LoadEdgeList(filepath.Join(dir, "missing"), false); err == nil {
		t.Fatal("missing edge list accepted")
	}
}

func TestOrigIDsAccessors(t *testing.T) {
	tk := New(gen.Disjoint(gen.Path(2), gen.Ring(3)))
	if tk.OrigIDs() != nil {
		t.Fatal("identity mapping should be nil")
	}
	if tk.OrigID(4) != 4 {
		t.Fatal("identity OrigID broken")
	}
	if err := tk.ExtractComponent(1); err != nil { // the ring, ids 2..4
		t.Fatal(err)
	}
	ids := tk.OrigIDs()
	if len(ids) != 3 || ids[0] != 2 {
		t.Fatalf("OrigIDs = %v", ids)
	}
}

func TestFileRoundTripThroughToolkit(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "g.bin")
	tk := New(gen.Ring(8))
	if err := tk.SaveBinary(bin); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	if back.Graph().NumEdges() != 8 {
		t.Fatal("binary round trip changed edges")
	}
	if _, err := LoadBinary(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing binary should error")
	}
	if _, err := LoadDIMACS(filepath.Join(dir, "missing"), false); err == nil {
		t.Fatal("missing dimacs should error")
	}
}

// A weighted DIMACS graph keeps its weights through component extraction:
// shortest paths on the extracted component equal those on the full graph
// (they used to come back in hop counts).
func TestExtractedComponentKeepsWeights(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.dimacs")
	// Component {1,2,3,4}: the direct 1-4 edge (weight 50) loses to the
	// path through 2 and 3 (weight 3); component {5,6} is smaller.
	src := "p sp 6 5\na 1 2 1\na 2 3 1\na 3 4 1\na 1 4 50\na 5 6 7\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	tk, err := LoadDIMACS(path, false)
	if err != nil {
		t.Fatal(err)
	}
	full, err := tk.SSSP(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tk.ExtractComponent(1); err != nil {
		t.Fatal(err)
	}
	if !tk.Graph().Weighted() {
		t.Fatal("extracted component lost its weights")
	}
	sub, err := tk.SSSP(0)
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range sub.Dist {
		if want := full.Dist[tk.OrigID(int32(v))]; d != want {
			t.Fatalf("dist(%d) = %d on the component, %d on the full graph", v, d, want)
		}
	}
	if sub.Dist[3] != 3 {
		t.Fatalf("dist to vertex 4 = %d, want 3 (weighted, not hops)", sub.Dist[3])
	}
}
