package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"graphct/internal/gen"
	"graphct/internal/graph"
	"graphct/internal/kcore"
)

// TestKCoresReplyMatchesExtract pins the count-only kcores reply: for every
// k from 0 to one past the degeneracy, the body is byte for byte the one
// built from the extracted k-core's own counts. One entry is a directed
// multigraph with self loops (counts of its own arcs, core numbers of its
// projection), the other a degree-reordered R-MAT graph served under an id
// translation.
func TestKCoresReplyMatchesExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var edges []graph.Edge
	for i := 0; i < 600; i++ {
		edges = append(edges, graph.Edge{U: int32(rng.Intn(40)), V: int32(rng.Intn(40))})
	}
	multi, err := graph.FromEdges(40, edges, graph.Options{Directed: true, KeepDuplicates: true, KeepSelfLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	reordered, toExternal, err := graph.Layout{Reorder: graph.ReorderDegree}.Apply(gen.RMAT(gen.PaperRMAT(9, 3)))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Add("multi", multi)
	reg.AddWithOrig("reordered", reordered, toExternal)
	ts := httptest.NewServer(New(reg, Config{}))
	t.Cleanup(ts.Close)

	for name, g := range map[string]*graph.Graph{"multi": multi, "reordered": reordered} {
		maxCore := slices.Max(kcore.Decompose(g))
		if maxCore < 3 {
			t.Fatalf("%s: degeneracy %d leaves too few levels to pin", name, maxCore)
		}
		for k := int32(0); k <= maxCore+1; k++ {
			sub, _ := kcore.Extract(g, k)
			want, err := json.Marshal(map[string]any{"k": int(k), "vertices": sub.NumVertices(), "edges": sub.NumEdges()})
			if err != nil {
				t.Fatal(err)
			}
			status, _, body := get(t, fmt.Sprintf("%s/graphs/%s/kcores?k=%d", ts.URL, name, k))
			if status != http.StatusOK || !bytes.Equal(body, want) {
				t.Fatalf("%s k=%d: status %d body %s, want %s", name, k, status, body, want)
			}
		}
	}
}
