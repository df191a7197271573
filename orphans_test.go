package graphct_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// orphanAllowlist names the exported internal/ functions that no non-test
// code calls on purpose, each with the reason it stays. Keys are
// "dir.Func" or "dir.Type.Method", dir relative to the module root.
var orphanAllowlist = map[string]string{
	"internal/gen.BinaryTree":               "test fixture: tree with closed-form scores",
	"internal/gen.Complete":                 "test fixture: complete graph with closed-form scores",
	"internal/gen.DefaultFollower":          "test fixture: default knobs for the follower generator",
	"internal/gen.Disjoint":                 "test fixture: union of disjoint graphs for component tests",
	"internal/gen.ErdosRenyi":               "test fixture: uniform random graph for oracle checks",
	"internal/gen.Grid":                     "test fixture: 2-D lattice",
	"internal/gen.PreferentialAttachment":   "test fixture: heavy-tailed graph for oracle checks",
	"internal/gen.Star":                     "test fixture: star with closed-form scores",
	"internal/sssp.Dijkstra":                "test oracle: reference for delta-stepping",
	"internal/graph.Graph.InducedArcs":      "test oracle: first pass of the two-pass core build InducedArcsByDegree replaced",
	"internal/cluster.Triangles":            "test oracle: per-vertex counts the recovery and soak tests compare",
	"internal/testutil.AlmostEqual":         "test harness: the repo's one float tolerance",
	"internal/testutil.CheckGoroutines":     "test harness: leak check after server tests",
	"internal/load.ClassReport.Rate":        "test harness: load driver behind the lanes SLO tests",
	"internal/load.Target.Ingest":           "test harness: load driver behind the lanes SLO tests",
	"internal/load.Target.Kernel":           "test harness: load driver behind the lanes SLO tests",
	"internal/graph.Graph.UndirectedBuilds": "test seam: counts the projections the cache saves",
	"internal/stream.Stream.DirtyVertices":  "test seam: observes the dirty set behind incremental snapshots",
	"internal/server.BreakerSet.State":      "test seam: observes breaker transitions",
	"internal/wal.Log.Appends":              "test seam: observes how many batches reached the log",
	"internal/failpoint.Error.Unwrap":       "interface method: errors.Is and errors.As call it",
	"internal/script.Error.Unwrap":          "interface method: errors.Is and errors.As call it",
	"internal/script.parseError.Unwrap":     "interface method: errors.Is and errors.As call it",
	"internal/server.Router.ServeHTTP":      "interface method: net/http calls it",
	"internal/server.Server.ServeHTTP":      "interface method: net/http calls it",
	"internal/server.counter.MarshalJSON":   "interface method: encoding/json calls it",
	"internal/sssp.distHeap.Less":           "interface method: container/heap calls it",
	"internal/sssp.distHeap.Swap":           "interface method: container/heap calls it",
}

// TestNoOrphanedExports fails on any exported function under internal/
// that no non-test .go file in the repository (benchmark/ included, since
// that module consumes internal/) names outside the function's own body.
// Matching is by identifier name, so any same-named identifier anywhere
// counts as a use and the scan errs towards keeping. A function that only
// tests call is dead code unless it is on orphanAllowlist with a reason.
func TestNoOrphanedExports(t *testing.T) {
	type decl struct {
		key, name string
	}
	var decls []decl
	uses := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, gd := range f.Decls {
			// A function's mentions of its own name (its declaration,
			// recursion) do not keep it alive.
			self := ""
			if fn, ok := gd.(*ast.FuncDecl); ok {
				self = fn.Name.Name
				if strings.HasPrefix(dir, "internal/") && fn.Name.IsExported() {
					decls = append(decls, decl{dir + "." + recvName(fn) + self, self})
				}
			}
			ast.Inspect(gd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name != self {
					uses[id.Name]++
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]bool{}
	var orphans []string
	for _, d := range decls {
		declared[d.key] = true
		if uses[d.name] == 0 {
			if _, ok := orphanAllowlist[d.key]; !ok {
				orphans = append(orphans, d.key)
			}
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s: exported, but no non-test code calls it; delete it or add it to orphanAllowlist with a reason", o)
	}
	var stale []string
	for key := range orphanAllowlist {
		name := key[strings.LastIndex(key, ".")+1:]
		if !declared[key] || uses[name] > 0 {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, s := range stale {
		t.Errorf("%s: on orphanAllowlist but missing or called from non-test code; drop the entry", s)
	}
}

// recvName returns "Type." for a method and "" for a plain function.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "."
	}
	return ""
}
