package script

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphct/internal/blob"
	"graphct/internal/dimacs"
	"graphct/internal/gen"
)

// writeTestGraph writes a DIMACS file with two components: a K4 (largest)
// and a path of 3.
func writeTestGraph(t *testing.T, dir string) string {
	t.Helper()
	g := gen.Disjoint(gen.Complete(4), gen.Path(3))
	path := filepath.Join(dir, "test.dimacs")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dimacs.Write(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func run(t *testing.T, dir, src string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	in := New(&out, dir)
	err := in.Run(strings.NewReader(src))
	return out.String(), err
}

func TestPaperExampleScript(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	// The paper's §IV-B example adapted to the test graph.
	src := `read dimacs test.dimacs
print diameter 10
save graph
extract component 1 => comp1.bin
print degrees
kcentrality 1 256 => k1scores.txt
kcentrality 2 256 => k2scores.txt
restore graph
extract component 2
print degrees
`
	out, err := run(t, dir, src)
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out)
	}
	if !strings.Contains(out, "extracted component 1: 4 vertices, 6 edges") {
		t.Fatalf("missing component extraction: %s", out)
	}
	if !strings.Contains(out, "extracted component 2: 3 vertices, 2 edges") {
		t.Fatalf("restore+second extraction failed: %s", out)
	}
	// comp1.bin must round trip as the K4.
	g, err := dimacs.LoadBinary(filepath.Join(dir, "comp1.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 6 {
		t.Fatalf("saved component = %v", g)
	}
	// Score files exist with one line per K4 vertex.
	for _, name := range []string{"k1scores.txt", "k2scores.txt"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Count(string(data), "\n")
		if lines != 4 {
			t.Fatalf("%s has %d lines, want 4", name, lines)
		}
	}
}

func TestPrintCommands(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	out, err := run(t, dir, "read dimacs test.dimacs\nprint diameter\nprint degrees\nprint components\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"diameter estimate", "degrees: n 7", "components: 2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestKCentralityToScreen(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	out, err := run(t, dir, "read dimacs test.dimacs\nkcentrality 0 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "kcentrality k=0") || !strings.Contains(out, "vertex") {
		t.Fatalf("kcentrality output: %s", out)
	}
}

func TestKCentralityAdaptive(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	out, err := run(t, dir, "read dimacs test.dimacs\nkcentrality 0 0 eps=0.05 delta=0.2\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "kcentrality adaptive eps=0.05 delta=0.2 samples=") {
		t.Fatalf("adaptive kcentrality output: %s", out)
	}
	// delta defaults when only eps is given, and redirects write scores.
	out, err = run(t, dir, "read dimacs test.dimacs\nkcentrality 0 0 eps=0.05 => ascores.txt\n")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "adaptive") {
		t.Fatalf("redirected run printed rankings: %s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "ascores.txt")); err != nil {
		t.Fatalf("redirect wrote no score file: %v", err)
	}
}

func TestKCentralityAdaptiveRejects(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	for _, line := range []string{
		"kcentrality 1 0 eps=0.05",                    // adaptive is classic BC only
		"kcentrality 0 16 eps=0.05",                   // samples conflicts with eps
		"kcentrality 0 0 delta=0.2",                   // delta requires eps
		"kcentrality 0 0 eps=1.5",                     // out of range
		"kcentrality 0 0 eps=0.05 x=1",                // unknown trailing arg
		"kcentrality 0 0 eps=0.05 delta=0.2 eps=0.01", // too many args
	} {
		_, err := run(t, dir, "read dimacs test.dimacs\n"+line+"\n")
		if err == nil {
			t.Errorf("%q: no error", line)
		}
	}
}

func TestKCoresClusteringBFS(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	out, err := run(t, dir, `read dimacs test.dimacs
clustering
kcores 3
bfs 0 1
bfs 0 0
bfs 0 -1
`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "global clustering coefficient") {
		t.Fatalf("clustering missing: %s", out)
	}
	if !strings.Contains(out, "3-core: 4 vertices, 6 edges") {
		t.Fatalf("kcores missing: %s", out)
	}
	for _, want := range []string{
		"bfs from 0: reached 4 vertices, depth 1\n",
		"bfs from 0: reached 1 vertices, depth 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("%q missing: %s", want, out)
		}
	}
	if strings.Count(out, "bfs from 0: reached 4 vertices, depth 1\n") != 2 {
		t.Fatalf("unbounded bfs differs from depth 1 on a clique: %s", out)
	}
}

func TestClusteringRedirect(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	_, err := run(t, dir, "read dimacs test.dimacs\nclustering => coef.txt\n")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "coef.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(data), "\n") != 7 {
		t.Fatal("coefficient file wrong length")
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	_, err := run(t, dir, "# a comment\n\nread dimacs test.dimacs\n# trailing comment\n")
	if err != nil {
		t.Fatal(err)
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	_, err := run(t, dir, "read dimacs test.dimacs\nfrobnicate\n")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v", err)
	}
}

// TestKCoresLargestLevel runs the largest core level a script accepts:
// MaxInt32 is in range and leaves an empty core.
func TestKCoresLargestLevel(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	out, err := run(t, dir, "read dimacs test.dimacs\nkcores 2147483647\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "2147483647-core: 0 vertices, 0 edges") {
		t.Fatalf("kcores 2147483647: %s", out)
	}
}

func TestCommandsBeforeRead(t *testing.T) {
	_, err := run(t, t.TempDir(), "print degrees\n")
	if err == nil || !strings.Contains(err.Error(), "no graph loaded") {
		t.Fatalf("err = %v", err)
	}
}

func TestBadArguments(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	bad := []string{
		"read dimacs",                // missing file
		"read csv x",                 // unknown format
		"read dimacs missing.dimacs", // no such file
	}
	for _, src := range bad {
		if _, err := run(t, dir, src+"\n"); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
	badAfter := []string{
		"print",
		"print nonsense",
		"print diameter -3",
		"print diameter 200",
		"save g",
		"restore g",
		"extract component x",
		"extract component 99",
		"extract widget 1",
		"kcentrality x 1",
		"kcentrality -1 1",
		"kcentrality 1",
		"kcentrality 1 y",
		"kcores",
		"kcores x",
		"kcores 2147483648", // one past MaxInt32: not truncated to the whole graph
		"kcores 4294967297", // 2^32 + 1: not truncated to the 1-core
		"bfs 0",
		"bfs 99 1",
		"bfs x 1",
		"bfs 0 z",
	}
	for _, src := range badAfter {
		if _, err := run(t, dir, "read dimacs test.dimacs\n"+src+"\n"); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

// TestSnapshotRoundTrip saves the loaded graph in the daemon's durable
// snapshot format and reads it back: same shape, same kernels, and the
// on-disk file opens through the blob package (the compat contract with
// graphctd data directories).
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	src := `read dimacs test.dimacs
save snapshot test.snap
read snapshot test.snap
print degrees
print components
`
	out, err := run(t, dir, src)
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out)
	}
	for _, want := range []string{
		"saved snapshot test.snap: 7 vertices, 8 edges",
		"read test.snap: 7 vertices, 8 edges",
		"degrees: n 7",
		"components: 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	snap, err := blob.ReadSnapshotFile(filepath.Join(dir, "test.snap"))
	if err != nil {
		t.Fatalf("snapshot not readable through blob: %v", err)
	}
	if snap.Graph.NumVertices() != 7 || snap.Graph.NumEdges() != 8 {
		t.Fatalf("blob snapshot = %d vertices / %d edges", snap.Graph.NumVertices(), snap.Graph.NumEdges())
	}
	// Error paths: truncated snapshot and bad arity.
	if err := os.WriteFile(filepath.Join(dir, "torn.snap"), []byte("GCTO"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"read snapshot torn.snap",
		"read snapshot missing.snap",
		"read dimacs test.dimacs\nsave snapshot",
		// Snapshot writes create missing directories, so force the failure
		// with a parent that is a regular file.
		"read dimacs test.dimacs\nsave snapshot test.dimacs/x.snap",
	} {
		if _, err := run(t, dir, bad+"\n"); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
}

func TestRestoreEmptyStack(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	if _, err := run(t, dir, "read dimacs test.dimacs\nrestore graph\n"); err == nil {
		t.Fatal("restore with empty stack should error")
	}
}

func TestUndirectedAndReciprocal(t *testing.T) {
	dir := t.TempDir()
	// Directed pair: 0<->1, plus 2->0.
	path := filepath.Join(dir, "d.dimacs")
	if err := os.WriteFile(path, []byte("p sp 3 3\na 1 2 1\na 2 1 1\na 3 1 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	in := New(&out, dir)
	// Scripted reads default to undirected symmetrization, so drive the
	// reciprocal filter through the toolkit on a directed read.
	if err := in.Run(strings.NewReader("read dimacs d.dimacs\nundirected\nprint degrees\n")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "degrees: n 3") {
		t.Fatalf("output: %s", out.String())
	}
}

func TestSSSPCommand(t *testing.T) {
	dir := t.TempDir()
	// Weighted chain: 1 -5- 2 -2- 3.
	if err := os.WriteFile(filepath.Join(dir, "w.dimacs"), []byte("p edge 3 2\ne 1 2 5\ne 2 3 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := run(t, dir, "read dimacs w.dimacs\nsssp 0\nsssp 0 => dist.txt\n")
	if err != nil {
		t.Fatal(err)
	}
	// read dimacs keeps the weight column, so distances are weighted:
	// d(0,2) = 5 + 2.
	if !strings.Contains(out, "sssp from 0: reached 3 vertices, max distance 7") {
		t.Fatalf("sssp output: %s", out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "dist.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(data), "\n") != 3 {
		t.Fatal("distance file wrong length")
	}
	for _, bad := range []string{"sssp", "sssp x", "sssp 99"} {
		if _, err := run(t, dir, "read dimacs w.dimacs\n"+bad+"\n"); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
}

func TestStatsCommand(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	out, err := run(t, dir, "read dimacs test.dimacs\nstats\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"power-law alpha", "top-20%", "gini"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q: %s", want, out)
		}
	}
}

func TestCompareScoreFiles(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	// Produce exact and sampled k-centrality score files, then compare.
	src := `read dimacs test.dimacs
kcentrality 0 0 => exact.txt
kcentrality 0 3 => approx.txt
compare exact.txt approx.txt 20
compare exact.txt exact.txt 10
`
	out, err := run(t, dir, src)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "top 20%: overlap") {
		t.Fatalf("compare output missing: %s", out)
	}
	if !strings.Contains(out, "top 10%: overlap 1.0000, normalized set hamming 0.0000") {
		t.Fatalf("self-compare not perfect: %s", out)
	}
}

func TestCompareWorksWithoutGraph(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"a.txt", "b.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("0 1.5\n1 0.5\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := run(t, dir, "compare a.txt b.txt 50\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "overlap 1.0000") {
		t.Fatalf("output: %s", out)
	}
}

func TestCompareErrors(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "good.txt"), []byte("0 1\n1 2\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "short.txt"), []byte("0 1\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "badline.txt"), []byte("0 1 2 3\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "badvertex.txt"), []byte("x 1\n"), 0o644)
	os.WriteFile(filepath.Join(dir, "badscore.txt"), []byte("0 huh\n"), 0o644)
	cases := []string{
		"compare good.txt",                  // arity
		"compare good.txt short.txt 0",      // bad percent
		"compare good.txt short.txt 101",    // bad percent
		"compare good.txt short.txt x",      // bad percent
		"compare missing.txt good.txt 10",   // missing file
		"compare good.txt missing.txt 10",   // missing file
		"compare good.txt short.txt 10",     // length mismatch
		"compare good.txt badline.txt 10",   // malformed line
		"compare good.txt badvertex.txt 10", // bad vertex
		"compare good.txt badscore.txt 10",  // bad score
	}
	for _, src := range cases {
		if _, err := run(t, dir, src+"\n"); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestKCentralityRejectsUnsupportedK(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	if _, err := run(t, dir, "read dimacs test.dimacs\nkcentrality 3 4\n"); err == nil {
		t.Fatal("k=3 accepted")
	}
}

func TestReadEdgeList(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "g.txt"), []byte("# snap\n0 1\n1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := run(t, dir, "read edgelist g.txt\nprint degrees\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "read g.txt: 3 vertices, 2 edges") {
		t.Fatalf("output: %s", out)
	}
}

func TestRunFile(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	scriptPath := filepath.Join(dir, "job.gct")
	if err := os.WriteFile(scriptPath, []byte("read dimacs test.dimacs\nprint degrees\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	in := New(&out, "")
	if err := in.RunFile(scriptPath); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "degrees") {
		t.Fatal("RunFile produced no output")
	}
	if err := in.RunFile(filepath.Join(dir, "missing.gct")); err == nil {
		t.Fatal("missing script should error")
	}
}

func TestToolkitAccessorAndAbsolutePaths(t *testing.T) {
	dir := t.TempDir()
	gpath := writeTestGraph(t, dir)
	var out bytes.Buffer
	in := New(&out, "")
	if in.Toolkit() != nil {
		t.Fatal("toolkit before read should be nil")
	}
	// Absolute path bypasses the interpreter dir.
	if err := in.Exec("read dimacs " + gpath); err != nil {
		t.Fatal(err)
	}
	if in.Toolkit() == nil || in.Toolkit().Graph().NumVertices() != 7 {
		t.Fatal("toolkit not populated")
	}
}

func TestManyComponentsPrintTruncates(t *testing.T) {
	dir := t.TempDir()
	// 15 singleton-ish components: print components must truncate at 10.
	var sb strings.Builder
	sb.WriteString("p edge 30 15\n")
	for i := 0; i < 15; i++ {
		fmt.Fprintf(&sb, "e %d %d 1\n", 2*i+1, 2*i+2)
	}
	if err := os.WriteFile(filepath.Join(dir, "many.dimacs"), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := run(t, dir, "read dimacs many.dimacs\nprint components\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "components: 15") || !strings.Contains(out, "... 5 more") {
		t.Fatalf("truncation missing: %s", out)
	}
}

func TestRedirectToBadPathErrors(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	for _, src := range []string{
		"read dimacs test.dimacs\nkcentrality 0 0 => missing/dir/scores.txt\n",
		"read dimacs test.dimacs\nclustering => missing/dir/coef.txt\n",
		"read dimacs test.dimacs\nextract component 1 => missing/dir/c.bin\n",
	} {
		if _, err := run(t, dir, src); err == nil {
			t.Errorf("bad redirect accepted: %q", src)
		}
	}
}

func TestSeedPropagation(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	var out1, out2 bytes.Buffer
	a := New(&out1, dir)
	a.SetSeed(42)
	if err := a.Run(strings.NewReader("read dimacs test.dimacs\nkcentrality 0 2\n")); err != nil {
		t.Fatal(err)
	}
	b := New(&out2, dir)
	b.SetSeed(42)
	if err := b.Run(strings.NewReader("read dimacs test.dimacs\nkcentrality 0 2\n")); err != nil {
		t.Fatal(err)
	}
	if out1.String() != out2.String() {
		t.Fatal("same seed gave different sampled output")
	}
}

// classify runs src and returns the annotated *Error, failing the test if
// the script succeeded or the error is not a *Error.
func classify(t *testing.T, dir, src string) *Error {
	t.Helper()
	_, err := run(t, dir, src)
	if err == nil {
		t.Fatalf("no error for %q", src)
	}
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("error for %q is %T, want *Error: %v", src, err, err)
	}
	return se
}

// TestErrorClassification pins the parse vs runtime split drivers rely
// on for exit codes.
func TestErrorClassification(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	parse := []string{
		"frobnicate\n", // unknown command
		"components\n", // kernel before any read
		"read dimacs test.dimacs\nkcentrality 9 1\n",    // k outside range
		"read dimacs test.dimacs\nkcores 2147483648\n",  // core level past MaxInt32
		"read dimacs test.dimacs\nkcores 4294967297\n",  // core level past MaxInt32
		"read dimacs test.dimacs\nbfs 0\n",              // missing argument
		"read dimacs test.dimacs\nkcentrality 0 0 =>\n", // redirect without file
		"read dimacs test.dimacs\n=> out.txt\n",         // redirect without command
	}
	for _, src := range parse {
		if se := classify(t, dir, src); !se.Parse {
			t.Errorf("%q classified as runtime, want parse: %v", src, se)
		}
	}
	runtime := []string{
		"read dimacs missing.dimacs\n",                     // file does not exist
		"read dimacs test.dimacs\nextract component 99\n",  // rank out of range
		"read dimacs test.dimacs\nrestore graph\n",         // empty stack
		"read dimacs test.dimacs\ncompare a.txt b.txt 5\n", // missing score files
	}
	for _, src := range runtime {
		if se := classify(t, dir, src); se.Parse {
			t.Errorf("%q classified as parse, want runtime: %v", src, se)
		}
	}
}

// TestMalformedRedirects covers the "=>" error paths: a redirect needs
// both a command and a target.
func TestMalformedRedirects(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	for _, src := range []string{
		"read dimacs test.dimacs\nclustering =>\n",
		"read dimacs test.dimacs\nclustering =>   \n",
		"read dimacs test.dimacs\n=> scores.txt\n",
	} {
		if _, err := run(t, dir, src); err == nil {
			t.Errorf("malformed redirect accepted: %q", src)
		}
	}
	// Comments containing "=>" stay comments.
	if _, err := run(t, dir, "read dimacs test.dimacs\n# a comment => not a redirect\n"); err != nil {
		t.Errorf("comment with => rejected: %v", err)
	}
}

// TestKernelBeforeReadMentionsRead pins the guidance in the error text.
func TestKernelBeforeReadMentionsRead(t *testing.T) {
	for _, src := range []string{"components\n", "stats\n", "kcores 2\n", "sssp 0\n"} {
		_, err := run(t, t.TempDir(), src)
		if err == nil || !strings.Contains(err.Error(), "missing read command") {
			t.Errorf("%q: err = %v, want mention of missing read", src, err)
		}
	}
}

// TestRunFileErrorProvenance checks errors from RunFile carry file:line.
func TestRunFileErrorProvenance(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	path := filepath.Join(dir, "bad.gct")
	if err := os.WriteFile(path, []byte("read dimacs test.dimacs\nnonsense\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	in := New(&bytes.Buffer{}, "")
	err := in.RunFile(path)
	if err == nil || !strings.Contains(err.Error(), path+":2:") {
		t.Fatalf("err = %v, want %s:2: prefix", err, path)
	}
	var se *Error
	if !errors.As(err, &se) || !se.Parse || se.Line != 2 || se.Path != path {
		t.Fatalf("annotation = %+v", se)
	}
}

// TestReorderCommand relabels for cache locality mid-script and checks
// per-vertex output still reports the loaded graph's ids: the path middle
// (vertex 5 in the file) is the only positive-betweenness vertex.
func TestReorderCommand(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	out, err := run(t, dir, "read dimacs test.dimacs\nreorder degree\nkcentrality 0 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "reordered degree: 7 vertices, 8 edges") {
		t.Fatalf("reorder output: %s", out)
	}
	if !strings.Contains(out, " 1. vertex 5 ") {
		t.Fatalf("top vertex not translated to the loaded id: %s", out)
	}
}

// TestReorderCommandRejectsBadArgs pins the usage error for missing and
// unknown permutation kinds.
func TestReorderCommandRejectsBadArgs(t *testing.T) {
	dir := t.TempDir()
	writeTestGraph(t, dir)
	if _, err := run(t, dir, "read dimacs test.dimacs\nreorder\n"); err == nil || !strings.Contains(err.Error(), "usage: reorder") {
		t.Errorf("missing kind: err = %v, want usage error", err)
	}
	if _, err := run(t, dir, "read dimacs test.dimacs\nreorder hilbert\n"); err == nil || !strings.Contains(err.Error(), "unknown reorder") {
		t.Errorf("unknown kind: err = %v, want unknown-reorder error", err)
	}
}
