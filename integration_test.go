package graphct_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphct/internal/bc"
	"graphct/internal/cc"
	"graphct/internal/core"
	"graphct/internal/dimacs"
	"graphct/internal/rank"
	"graphct/internal/script"
	"graphct/internal/stats"
	"graphct/internal/tweets"
)

// TestEndToEndPipeline drives the entire paper workflow at miniature
// scale: harvest a synthetic crisis stream, clean it, build the mention
// graph, persist it through both file formats, analyze it through the
// toolkit, rank actors exactly and approximately, compare the rankings,
// and replay the same analysis through the scripting interface.
func TestEndToEndPipeline(t *testing.T) {
	dir := t.TempDir()

	// 1. Harvest: generate, keyword-filter, de-spam.
	raw := tweets.Generate(tweets.H1N1Corpus(0.05, 42))
	onTopic := tweets.FilterKeyword(raw, []string{"h1n1", "flu"})
	clean := tweets.FilterSpam(onTopic, 0)
	if len(clean) == 0 || len(clean) >= len(raw) {
		t.Fatalf("harvest sizes raw=%d clean=%d", len(raw), len(clean))
	}

	// 2. Mention graph with the paper's Table III characteristics.
	ug := tweets.Build(clean)
	if ug.Stats.Users == 0 || ug.Stats.UniqueInteractions == 0 {
		t.Fatalf("degenerate graph: %+v", ug.Stats)
	}

	// 3. Persist through DIMACS text and binary CSR; reload identically.
	und := ug.Graph.Undirected()
	dimacsPath := filepath.Join(dir, "mentions.dimacs")
	f, err := os.Create(dimacsPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := dimacs.Write(f, und); err != nil {
		t.Fatal(err)
	}
	f.Close()
	binPath := filepath.Join(dir, "mentions.bin")
	if err := dimacs.SaveBinary(binPath, und); err != nil {
		t.Fatal(err)
	}
	fromText, err := dimacs.ParseFile(dimacsPath, dimacs.ParseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := dimacs.LoadBinary(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if fromText.NumEdges() != und.NumEdges() || fromBin.NumEdges() != und.NumEdges() {
		t.Fatal("file round trips changed the edge set")
	}

	// 4. Toolkit analysis: diameter, components, LWCC extraction, k-core,
	// clustering — the kernels of Section IV over one loaded graph.
	tk := core.New(fromBin, core.WithSeed(7))
	if tk.Diameter().Estimate <= 0 {
		t.Fatal("no diameter estimate")
	}
	census := tk.ComponentCensus()
	if len(census) < 2 {
		t.Fatalf("expected a fragmented mention graph, got %d components", len(census))
	}
	tk.Save()
	if err := tk.ExtractComponent(1); err != nil {
		t.Fatal(err)
	}
	lwcc := tk.Graph()
	if int64(lwcc.NumVertices()) != census[0].Size {
		t.Fatal("LWCC extraction size mismatch")
	}

	// 5. Rankings: exact vs 25% sampling, overlap must be meaningful; the
	// most central actor must be a broadcast hub handle.
	exact := tk.KCentrality(0, 0)
	approx := tk.BetweennessApprox(lwcc.NumVertices() / 4)
	overlap := rank.TopAccuracy(exact.Scores, approx.Scores, 0.05)
	if overlap < 0.5 {
		t.Fatalf("top-5%% overlap %v suspiciously low", overlap)
	}
	topOrig := tk.OrigID(exact.TopK(1)[0])
	// Map back through the builder's vertex numbering (identical for the
	// undirected projection) to a handle.
	topHandle := ug.Names[topOrig]
	if !strings.Contains(topHandle, "h1n1") {
		t.Fatalf("top actor %q is not a hub", topHandle)
	}
	if err := tk.Restore(); err != nil {
		t.Fatal(err)
	}

	// 6. Conversations: the reciprocal core is dramatically smaller and
	// splits into clusters.
	coreG := ug.Graph.ReciprocalCore()
	conv, _ := coreG.DropIsolated()
	active, _ := ug.Graph.DropIsolated()
	if conv.NumVertices() == 0 || conv.NumVertices()*3 > active.NumVertices() {
		t.Fatalf("reciprocal filter: %d of %d", conv.NumVertices(), active.NumVertices())
	}
	if cc.Components(conv).Count < 2 {
		t.Fatal("expected multiple conversation clusters")
	}

	// 7. Degree structure: heavy tail with hub concentration.
	if alpha, used := stats.PowerLawAlpha(und, 4); used > 0 && (alpha < 1.5 || alpha > 5) {
		t.Fatalf("alpha = %v", alpha)
	}
	if share := stats.TopShare(und, 0.2); share < 0.5 {
		t.Fatalf("top-20%% share = %v", share)
	}

	// 8. The scripting interface reproduces the same numbers.
	var out bytes.Buffer
	in := script.New(&out, dir)
	in.SetSeed(7)
	scriptSrc := `read binary mentions.bin
print components
extract component 1
kcentrality 0 0 => exact.txt
kcentrality 0 64 => approx.txt
compare exact.txt approx.txt 5
`
	if err := in.Run(strings.NewReader(scriptSrc)); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "top 5%: overlap") {
		t.Fatalf("script output missing comparison: %s", out.String())
	}
	scores, err := os.ReadFile(filepath.Join(dir, "exact.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := bytes.Count(scores, []byte("\n")); lines != lwcc.NumVertices() {
		t.Fatalf("script exact scores: %d lines for %d vertices", lines, lwcc.NumVertices())
	}

	// 9. k-betweenness agrees with classic BC at k=0 through the toolkit.
	k0 := bc.Centrality(und, bc.Options{K: 0, Samples: 50, Seed: 3})
	k1 := bc.Centrality(und, bc.Options{K: 1, Samples: 50, Seed: 3})
	if len(k0.Scores) != len(k1.Scores) {
		t.Fatal("k-centrality shape mismatch")
	}
}
