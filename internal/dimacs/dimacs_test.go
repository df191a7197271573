package dimacs

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"graphct/internal/gen"
	"graphct/internal/graph"
)

const sample = `c sample graph
p edge 4 4
e 1 2 5
e 2 3 7
e 3 4 2
e 4 1 9
`

func TestParseBasic(t *testing.T) {
	g, err := Parse(strings.NewReader(sample), ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("parsed %v", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("symmetrization missing")
	}
	if g.Weighted() {
		t.Fatal("weights kept without KeepWeights")
	}
}

func TestParseWeights(t *testing.T) {
	g, err := Parse(strings.NewReader(sample), ParseOptions{KeepWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Weighted() {
		t.Fatal("weights dropped")
	}
	nbr, wts := g.Neighbors(0), g.Weights(0)
	for i, w := range nbr {
		want := int32(5)
		if w == 3 {
			want = 9
		}
		if wts[i] != want {
			t.Fatalf("weight 0-%d = %d, want %d", w, wts[i], want)
		}
	}
}

func TestParseDirected(t *testing.T) {
	g, err := Parse(strings.NewReader("p sp 3 2\na 1 2 1\na 2 3 1\n"), ParseOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Directed() || g.NumArcs() != 2 {
		t.Fatalf("directed parse = %v", g)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(1, 0) {
		t.Fatal("directed graph has reverse arc")
	}
}

func TestParseNoWeightColumn(t *testing.T) {
	g, err := Parse(strings.NewReader("p edge 2 1\ne 1 2\n"), ParseOptions{KeepWeights: true})
	if err != nil {
		t.Fatal(err)
	}
	if g.Weights(0)[0] != 1 {
		t.Fatal("default weight should be 1")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                           // empty
		"e 1 2 1\n",                  // edge before header
		"p edge\n",                   // short header
		"p edge x 1\n",               // bad n
		"p edge 2 y\n",               // bad m
		"p edge 2 1\ne 1\n",          // short edge
		"p edge 2 1\ne a 2 1\n",      // bad source
		"p edge 2 1\ne 1 b 1\n",      // bad target
		"p edge 2 1\ne 1 2 w\n",      // bad weight
		"p edge 2 1\ne 0 2 1\n",      // id underflow
		"p edge 2 1\ne 1 3 1\n",      // id overflow
		"p edge 2 1\nz what is this", // unknown line
		"p edge -2 1\n",              // negative n
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src), ParseOptions{}); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestParseMaxVerticesGuard(t *testing.T) {
	src := "p edge 1000000 1\ne 1 2 1\n"
	if _, err := Parse(strings.NewReader(src), ParseOptions{MaxVertices: 100}); err == nil {
		t.Fatal("hostile header accepted")
	}
	if _, err := Parse(strings.NewReader(src), ParseOptions{}); err != nil {
		t.Fatalf("unlimited parse failed: %v", err)
	}
	if _, err := ParseEdgeList(strings.NewReader("0 5000\n"), EdgeListOptions{MaxVertices: 100}); err == nil {
		t.Fatal("hostile edge list accepted")
	}
}

func TestParseBlankLinesAndComments(t *testing.T) {
	src := "c leading\n\np edge 2 1\nc mid\n\ne 1 2 3\nc trailing"
	g, err := Parse(strings.NewReader(src), ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestParseNoTrailingNewline(t *testing.T) {
	g, err := Parse(strings.NewReader("p edge 2 1\ne 1 2 3"), ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatal("edge on final unterminated line lost")
	}
}

func TestParseLargeParallel(t *testing.T) {
	// Build a large file spanning many parse chunks.
	var sb strings.Builder
	const n = 5000
	sb.WriteString("p edge 5000 4999\n")
	for v := 2; v <= n; v++ {
		sb.WriteString("e ")
		sb.WriteString(strconv.Itoa(v - 1))
		sb.WriteByte(' ')
		sb.WriteString(strconv.Itoa(v))
		sb.WriteString(" 1\n")
	}
	g, err := ParseBytes([]byte(sb.String()), ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != n || g.NumEdges() != n-1 {
		t.Fatalf("large parse: %v", g)
	}
	for v := 1; v < n-1; v++ {
		if g.Degree(int32(v)) != 2 {
			t.Fatalf("path degree broken at %d", v)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	g := gen.ErdosRenyi(50, 150, 3)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %v vs %v", back, g)
	}
	for v := 0; v < 50; v++ {
		a, b := g.Neighbors(int32(v)), back.Neighbors(int32(v))
		if len(a) != len(b) {
			t.Fatalf("degree changed at %d", v)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("adjacency changed at %d", v)
			}
		}
	}
}

func TestWriteDirectedRoundTrip(t *testing.T) {
	d, _ := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 0}}, graph.Options{Directed: true})
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf, ParseOptions{Directed: true})
	if err != nil {
		t.Fatal(err)
	}
	if back.NumArcs() != 3 || !back.HasEdge(3, 0) || back.HasEdge(0, 3) {
		t.Fatalf("directed round trip broken: %v", back)
	}
}

// TestWritersMatchFormattedReference pins the text both writers emit to
// the fmt.Fprintf lines they replaced, byte for byte: undirected, directed
// and weighted graphs, raw and compact, ids wide enough to change digit
// count.
func TestWritersMatchFormattedReference(t *testing.T) {
	weighted, err := graph.FromWeightedEdges(1200, []graph.WeightedEdge{
		{U: 0, V: 1199, W: -7}, {U: 9, V: 10, W: 0}, {U: 99, V: 100, W: 2147483647}, {U: 5, V: 5, W: 3},
	}, graph.Options{Directed: true, KeepSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	directed, _ := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 0}}, graph.Options{Directed: true})
	er := gen.ErdosRenyi(1100, 3000, 5)
	for name, g := range map[string]*graph.Graph{
		"undirected": er, "compact": er.Compact(), "directed": directed, "weighted": weighted, "empty": graph.Empty(3, false),
	} {
		var dim, el bytes.Buffer
		tag, kind := "edge", 'e'
		if g.Directed() {
			tag, kind = "sp", 'a'
		}
		fmt.Fprintf(&dim, "c written by graphct\np %s %d %d\n", tag, g.NumVertices(), g.NumEdges())
		fmt.Fprintf(&el, "# graphct edge list: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())
		for v := 0; v < g.NumVertices(); v++ {
			wts := g.Weights(int32(v))
			for i, u := range g.Neighbors(int32(v)) {
				if !g.Directed() && u < int32(v) {
					continue
				}
				weight := int32(1)
				if wts != nil {
					weight = wts[i]
				}
				fmt.Fprintf(&dim, "%c %d %d %d\n", kind, v+1, u+1, weight)
				fmt.Fprintf(&el, "%d %d\n", v, u)
			}
		}
		var got bytes.Buffer
		if err := Write(&got, g); err != nil || !bytes.Equal(got.Bytes(), dim.Bytes()) {
			t.Errorf("%s: Write differs from the formatted reference (err %v)", name, err)
		}
		got.Reset()
		if err := WriteEdgeList(&got, g); err != nil || !bytes.Equal(got.Bytes(), el.Bytes()) {
			t.Errorf("%s: WriteEdgeList differs from the formatted reference (err %v)", name, err)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	graphs := []*graph.Graph{
		gen.ErdosRenyi(100, 300, 1),
		gen.Star(5),
		graph.Empty(7, false),
		graph.Empty(0, true),
	}
	for i, g := range graphs {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, g); err != nil {
			t.Fatalf("graph %d write: %v", i, err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("graph %d read: %v", i, err)
		}
		if back.NumVertices() != g.NumVertices() || back.NumArcs() != g.NumArcs() || back.Directed() != g.Directed() {
			t.Fatalf("graph %d shape changed", i)
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("graph %d invalid after round trip: %v", i, err)
		}
	}
}

func TestBinaryWeightedRoundTrip(t *testing.T) {
	g, _ := graph.FromWeightedEdges(3, []graph.WeightedEdge{{U: 0, V: 1, W: 42}, {U: 1, V: 2, W: 7}}, graph.Options{})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Weighted() || back.Weights(0)[0] != 42 {
		t.Fatal("weights lost in binary round trip")
	}
}

func TestBinaryBadInput(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NOPE"),
		[]byte("GCTB"), // truncated after magic
		append([]byte("GCTB"), 9, 0, 0, 0, 0, 0, 0, 0), // bad version
		append([]byte("GCTB"), 1, 0, 0, 0, 0, 0, 0, 0), // truncated sizes
	}
	for i, data := range cases {
		if _, err := ReadBinary(bytes.NewReader(data)); err == nil {
			t.Errorf("case %d: bad input accepted", i)
		}
	}
}

func TestSaveLoadBinaryFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	g := gen.Ring(12)
	if err := SaveBinary(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != 12 {
		t.Fatal("file round trip changed edges")
	}
	if _, err := LoadBinary(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("missing file should error")
	}
}

func TestParseFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.dimacs")
	if err := writeFile(path, sample); err != nil {
		t.Fatal(err)
	}
	g, err := ParseFile(path, ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 4 {
		t.Fatal("ParseFile wrong edges")
	}
	if _, err := ParseFile(filepath.Join(dir, "nope"), ParseOptions{}); err == nil {
		t.Fatal("missing file should error")
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// Property: DIMACS text round trip preserves the undirected edge set.
func TestPropertyTextRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		g := gen.ErdosRenyi(30, 60, seed)
		var buf bytes.Buffer
		if Write(&buf, g) != nil {
			return false
		}
		back, err := Parse(&buf, ParseOptions{})
		if err != nil {
			return false
		}
		if back.NumEdges() != g.NumEdges() {
			return false
		}
		for v := 0; v < 30; v++ {
			for _, w := range g.Neighbors(int32(v)) {
				if !back.HasEdge(int32(v), w) {
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

// binaryShapes are the graphs the binary format must carry byte for byte:
// a hub, a long path, a clique, many components, isolated vertices, loops
// and repeated arcs, directed arcs, weights, a compact graph, a graph
// whose image spans several 1 MiB write chunks, and the empty graphs.
func binaryShapes(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	build := func(n int, edges []graph.Edge, opt graph.Options) *graph.Graph {
		g, err := graph.FromEdges(n, edges, opt)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	rng := rand.New(rand.NewSource(24))
	var wheel, multi []graph.Edge
	for v := int32(1); v <= 2000; v++ {
		wheel = append(wheel, graph.Edge{U: 0, V: v}, graph.Edge{U: v, V: v%2000 + 1})
	}
	for i := 0; i < 3000; i++ {
		u := int32(rng.Intn(200))
		multi = append(multi, graph.Edge{U: u, V: u}, graph.Edge{U: u, V: int32(rng.Intn(200))})
	}
	weighted, err := graph.FromWeightedEdges(30, wedges(29), graph.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rmat := gen.RMAT(gen.PaperRMAT(12, 5))
	return map[string]*graph.Graph{
		"hub-wheel":       build(2001, wheel, graph.Options{}),
		"path":            gen.Path(10000),
		"clique":          gen.Complete(120),
		"components":      gen.Disjoint(gen.Ring(5), gen.Complete(4), gen.Path(3), gen.Ring(7)),
		"isolated":        build(5000, []graph.Edge{{U: 3, V: 4900}, {U: 7, V: 4999}}, graph.Options{}),
		"loops-multi":     build(200, multi, graph.Options{KeepSelfLoops: true, KeepDuplicates: true}),
		"directed":        build(200, multi, graph.Options{Directed: true}),
		"weighted":        weighted,
		"rmat-12":         rmat,
		"rmat-12-compact": rmat.Compact(),
		"rmat-14":         gen.RMAT(gen.PaperRMAT(14, 5)),
		"no-edges":        build(7, nil, graph.Options{}),
		"no-vertices":     build(0, nil, graph.Options{}),
	}
}

// The one-pass encoder writes exactly the retired encoder's bytes, to
// writers that can Grow and writers that cannot, and ReadBinary decodes
// them back — sized from the input when the reader knows its length,
// chunk by chunk when it does not.
func TestWriteBinaryMatchesOracle(t *testing.T) {
	for name, g := range binaryShapes(t) {
		var want, got bytes.Buffer
		if err := oracleWriteBinary(&want, g); err != nil {
			t.Fatal(err)
		}
		if err := WriteBinary(&got, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: %d bytes differ from the retired encoder's %d", name, got.Len(), want.Len())
		}
		var plain strings.Builder
		if err := WriteBinary(&writerAdapter{&plain}, g); err != nil || plain.String() != want.String() {
			t.Fatalf("%s: encoding through a plain writer differs (err %v)", name, err)
		}
		for _, r := range []io.Reader{bytes.NewReader(want.Bytes()), struct{ io.Reader }{bytes.NewReader(want.Bytes())}} {
			back, err := ReadBinary(r)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !slices.Equal(back.RowPtr(), g.RowPtr()) || !slices.Equal(back.AdjArray(), g.AdjArray()) ||
				!slices.Equal(back.WeightArray(), g.WeightArray()) || back.Directed() != g.Directed() {
				t.Fatalf("%s: round trip through %T differs", name, r)
			}
		}
	}
}
