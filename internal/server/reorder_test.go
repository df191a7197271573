package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"graphct/internal/bfs"
	"graphct/internal/dimacs"
	"graphct/internal/gen"
	"graphct/internal/graph"
	"graphct/internal/sssp"
)

// translationGraph has distinguishable components and a hub that is NOT
// external vertex 0, so a missing or misdirected id translation changes
// observable results instead of cancelling out: path 0-1-2, then a star
// with hub 3 and leaves 4-7. Degree reordering moves the hub to internal
// id 0.
func translationGraph() *graph.Graph {
	return gen.Disjoint(gen.Path(3), gen.Star(5))
}

func TestRegistryLoadAppliesLayout(t *testing.T) {
	g := translationGraph()
	path := filepath.Join(t.TempDir(), "g.dimacs")
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

	reg := NewRegistry()
	e, err := reg.Load("g", "dimacs", path, false)
	if err != nil {
		t.Fatal(err)
	}
	if e.Orig == nil {
		t.Fatal("load published no id translation")
	}
	// The hub (external 3, degree 4) must now be internal vertex 0.
	if e.ToInternal(3) != 0 || e.ToExternal(0) != 3 {
		t.Fatalf("hub translation: ToInternal(3)=%d ToExternal(0)=%d", e.ToInternal(3), e.ToExternal(0))
	}
	n := g.NumVertices()
	for v := int32(0); int(v) < n; v++ {
		if e.ToInternal(e.ToExternal(v)) != v || e.ToExternal(e.ToInternal(v)) != v {
			t.Fatalf("translation not a bijection at %d", v)
		}
	}
	// Structure is preserved through the mapping: every external edge
	// exists between the translated endpoints.
	for u := int32(0); int(u) < n; u++ {
		for _, v := range g.Neighbors(u) {
			iu := e.ToInternal(u)
			found := false
			for _, w := range e.Graph.Neighbors(iu) {
				if w == e.ToInternal(v) {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d-%d lost after relabeling", u, v)
			}
		}
	}
}

// TestKernelsTranslateVertexIDs runs the per-vertex kernels over HTTP on a
// degree-reordered graph and checks every answer against the kernels run
// directly on the original labels: the relabeling must be invisible.
func TestKernelsTranslateVertexIDs(t *testing.T) {
	g := translationGraph()
	rg, inv, err := graph.Layout{Reorder: graph.ReorderDegree}.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.AddWithOrig("g", rg, inv)
	s := New(reg, Config{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// kcentrality: the star hub routes every leaf-to-leaf shortest path,
	// so the top-1 answer must name it by its external id (3), not its
	// internal label (0).
	code, _, body := get(t, ts.URL+"/graphs/g/kcentrality?k=0&samples=0&top=1")
	if code != http.StatusOK {
		t.Fatalf("kcentrality: %d %s", code, body)
	}
	var kc struct {
		Top []struct {
			Vertex int32   `json:"vertex"`
			Score  float64 `json:"score"`
		} `json:"top"`
	}
	if err := json.Unmarshal(body, &kc); err != nil {
		t.Fatal(err)
	}
	if len(kc.Top) != 1 || kc.Top[0].Vertex != 3 {
		t.Fatalf("kcentrality top = %+v, want the star hub (external 3)", kc.Top)
	}

	// bfs and sssp from every external source: reach counts and distances
	// must match the kernels on the original graph.
	for src := int32(0); int(src) < g.NumVertices(); src++ {
		wantBFS := bfs.Search(g, src)
		code, _, body := get(t, fmt.Sprintf("%s/graphs/g/bfs?src=%d", ts.URL, src))
		if code != http.StatusOK {
			t.Fatalf("bfs src=%d: %d %s", src, code, body)
		}
		var br struct {
			Src     int32 `json:"src"`
			Reached int   `json:"reached"`
			Depth   int   `json:"depth"`
		}
		if err := json.Unmarshal(body, &br); err != nil {
			t.Fatal(err)
		}
		if br.Src != src || br.Reached != wantBFS.NumReached() || br.Depth != wantBFS.Depth {
			t.Fatalf("bfs src=%d: got %+v, want reached=%d depth=%d",
				src, br, wantBFS.NumReached(), wantBFS.Depth)
		}

		wantSSSP, err := sssp.Dijkstra(g, src)
		if err != nil {
			t.Fatal(err)
		}
		reached, maxDist := 0, int64(0)
		for _, d := range wantSSSP.Dist {
			if d != sssp.Inf {
				reached++
				if d > maxDist {
					maxDist = d
				}
			}
		}
		code, _, body = get(t, fmt.Sprintf("%s/graphs/g/sssp?src=%d", ts.URL, src))
		if code != http.StatusOK {
			t.Fatalf("sssp src=%d: %d %s", src, code, body)
		}
		var sr struct {
			Src     int32 `json:"src"`
			Reached int   `json:"reached"`
			MaxDist int64 `json:"max_distance"`
		}
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Reached != reached || sr.MaxDist != maxDist {
			t.Fatalf("sssp src=%d: got %+v, want reached=%d max=%d", src, sr, reached, maxDist)
		}
	}
}

// TestExtractComposesTranslation extracts the largest component of a
// reordered graph and checks the derived entry's id trail lifts all the
// way back to the loaded graph's external labels.
func TestExtractComposesTranslation(t *testing.T) {
	g := translationGraph() // largest component: the 5-vertex star, external 3-7
	rg, inv, err := graph.Layout{Reorder: graph.ReorderDegree}.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.AddWithOrig("g", rg, inv)
	s := New(reg, Config{})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	resp, err := http.Post(ts.URL+"/graphs/g/extract", "application/json",
		bytes.NewReader([]byte(`{"component": 1, "as": "sub"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("extract: %d", resp.StatusCode)
	}
	sub, ok := reg.Get("sub")
	if !ok {
		t.Fatal("extracted graph not registered")
	}
	if sub.Graph.NumVertices() != 5 {
		t.Fatalf("extracted %d vertices, want the 5-vertex star", sub.Graph.NumVertices())
	}
	ids := make([]int, 0, 5)
	for v := int32(0); v < 5; v++ {
		ids = append(ids, int(sub.ToExternal(v)))
	}
	sort.Ints(ids)
	for i, want := range []int{3, 4, 5, 6, 7} {
		if ids[i] != want {
			t.Fatalf("extracted external ids %v, want [3 4 5 6 7]", ids)
		}
	}
}
