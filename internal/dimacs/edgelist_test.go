package dimacs

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"testing"
	"testing/quick"

	"graphct/internal/gen"
	"graphct/internal/graph"
)

func TestParseEdgeListBasic(t *testing.T) {
	src := "# comment\n0 1\n1 2\n\n2 0\n"
	g, err := ParseEdgeListBytes([]byte(src), EdgeListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("parsed %v", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(1, 0) {
		t.Fatal("symmetrization missing")
	}
}

func TestParseEdgeListDirected(t *testing.T) {
	g, err := ParseEdgeListBytes([]byte("0 1\n1 2\n"), EdgeListOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Directed() || g.NumArcs() != 2 || g.HasEdge(1, 0) {
		t.Fatalf("directed parse = %v", g)
	}
}

func TestParseEdgeListFixedVertexCount(t *testing.T) {
	g, err := ParseEdgeListBytes([]byte("0 1\n"), EdgeListOptions{NumVertices: 10})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 10 {
		t.Fatalf("n = %d, want 10", g.NumVertices())
	}
	// Fixed count smaller than ids -> range error from the builder.
	if _, err := ParseEdgeListBytes([]byte("0 9\n"), EdgeListOptions{NumVertices: 5}); err == nil {
		t.Fatal("oversize id accepted")
	}
}

func TestParseEdgeListErrors(t *testing.T) {
	for _, src := range []string{"0\n", "a 1\n", "0 b\n", "-1 2\n", "0 -2\n"} {
		if _, err := ParseEdgeListBytes([]byte(src), EdgeListOptions{}); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestParseEdgeListEmpty(t *testing.T) {
	g, err := ParseEdgeListBytes([]byte("# nothing\n"), EdgeListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 {
		t.Fatalf("empty list gave %d vertices", g.NumVertices())
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := gen.ErdosRenyi(40, 120, 9)
	var buf bytes.Buffer
	if err := writeEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ParseEdgeListBytes(buf.Bytes(), EdgeListOptions{NumVertices: 40})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip edges %d != %d", back.NumEdges(), g.NumEdges())
	}
	for v := 0; v < 40; v++ {
		for _, w := range g.Neighbors(int32(v)) {
			if !back.HasEdge(int32(v), w) {
				t.Fatalf("lost edge %d-%d", v, w)
			}
		}
	}
}

func TestParseEdgeListFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := writeFile(path, "0 1\n1 2\n"); err != nil {
		t.Fatal(err)
	}
	g, err := ParseEdgeListFile(path, EdgeListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatal("file parse wrong")
	}
	if _, err := ParseEdgeListFile(filepath.Join(dir, "missing"), EdgeListOptions{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

// Property: edge-list round trip preserves the adjacency structure for
// directed graphs too.
func TestPropertyEdgeListDirectedRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		base := gen.ErdosRenyi(20, 50, seed)
		// Reinterpret as directed by re-ingesting its arcs.
		var buf bytes.Buffer
		if writeEdgeList(&buf, base) != nil {
			return false
		}
		d, err := ParseEdgeListBytes(buf.Bytes(), EdgeListOptions{Directed: true, NumVertices: 20})
		if err != nil {
			return false
		}
		return d.NumArcs() == base.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// writeEdgeList emits g as an edge list, undirected edges once (u <= v):
// the input the round-trip tests feed back to the parser.
func writeEdgeList(w io.Writer, g *graph.Graph) error {
	if _, err := fmt.Fprintf(w, "# graphct edge list: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(int32(v)) {
			if !g.Directed() && u < int32(v) {
				continue
			}
			if _, err := fmt.Fprintf(w, "%d %d\n", v, u); err != nil {
				return err
			}
		}
	}
	return nil
}
