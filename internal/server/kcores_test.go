package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
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

// kcoresBody is the reply kcores?k= owes for g: the counts of the k-core
// Extract builds.
func kcoresBody(t *testing.T, g *graph.Graph, k int) []byte {
	t.Helper()
	sub, _ := kcore.Extract(g, int32(k))
	b, err := json.Marshal(map[string]any{"k": k, "vertices": sub.NumVertices(), "edges": sub.NumEdges()})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// requireKCores asks name for its k-core at level k and holds the reply to
// g's extracted counts.
func requireKCores(t *testing.T, base, name string, g *graph.Graph, k int) {
	t.Helper()
	status, _, body := get(t, fmt.Sprintf("%s/graphs/%s/kcores?k=%d", base, name, k))
	if want := kcoresBody(t, g, k); status != http.StatusOK || !bytes.Equal(body, want) {
		t.Fatalf("%s k=%d: status %d body %s, want %s", name, k, status, body, want)
	}
}

// TestKCoreProfileOnePerEpoch: every kcores request on an entry reads one
// profile, and registering the same *graph.Graph again — a new entry at a
// new epoch — builds a new one instead of reusing the old entry's.
func TestKCoreProfileOnePerEpoch(t *testing.T) {
	g := gen.RMAT(gen.PaperRMAT(8, 5))
	reg := NewRegistry()
	s := New(reg, Config{})
	ts := newHTTPServer(t, s)

	first := reg.Add("g", g)
	for k := 0; k < 6; k++ {
		requireKCores(t, ts.URL, "g", g, k)
	}
	if got := s.metrics.KCoreProfiles.Load(); got != 1 {
		t.Fatalf("kcore_profiles = %d after six levels on one epoch, want 1", got)
	}
	second := reg.Add("g", g)
	if second.Epoch == first.Epoch || second.kcores.p != nil {
		t.Fatalf("re-registered entry: epoch %d (was %d), profile built before any request", second.Epoch, first.Epoch)
	}
	for k := 0; k < 6; k++ {
		requireKCores(t, ts.URL, "g", g, k)
	}
	if got := s.metrics.KCoreProfiles.Load(); got != 2 {
		t.Fatalf("kcore_profiles = %d after two epochs, want 2", got)
	}
	if first.kcores.p == second.kcores.p {
		t.Fatal("two epochs share one profile")
	}
}

// TestKCoreProfileConcurrentBuildsOnce holds 16 distinct kcores requests
// on a fresh entry at a barrier inside their pool slots, then lets them
// race to the profile: exactly one builds it, and every reply is still
// Extract's counts.
func TestKCoreProfileConcurrentBuildsOnce(t *testing.T) {
	g, toExternal, err := graph.Layout{Reorder: graph.ReorderDegree}.Apply(gen.RMAT(gen.PaperRMAT(9, 7)))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	s := New(reg, Config{MaxConcurrent: 16, MaxQueued: 16})
	const n = 16
	var arrived sync.WaitGroup
	arrived.Add(n)
	s.beforeKernel = func(string) {
		arrived.Done()
		arrived.Wait()
	}
	ts := newHTTPServer(t, s)
	reg.AddWithOrig("g", g, toExternal)

	var wg sync.WaitGroup
	statuses, bodies := make([]int, n), make([][]byte, n)
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/graphs/g/kcores?k=%d", ts.URL, k))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			_, _ = buf.ReadFrom(resp.Body)
			statuses[k], bodies[k] = resp.StatusCode, buf.Bytes()
		}()
	}
	wg.Wait()
	for k := 0; k < n; k++ {
		if want := kcoresBody(t, g, k); statuses[k] != http.StatusOK || !bytes.Equal(bodies[k], want) {
			t.Fatalf("k=%d: status %d body %s, want %s", k, statuses[k], bodies[k], want)
		}
	}
	if got := s.metrics.KCoreProfiles.Load(); got != 1 {
		t.Fatalf("kcore_profiles = %d after %d concurrent levels, want 1", got, n)
	}
	if got := s.metrics.KernelRuns("kcores"); got != n {
		t.Fatalf("kcores ran %d times, want %d", got, n)
	}
}

// TestKCoresFollowLiveEpochs: each snapshot an ingest publishes is a new
// entry, so kcores answers the new snapshot's counts from a new profile.
func TestKCoresFollowLiveEpochs(t *testing.T) {
	reg := NewRegistry()
	s := New(reg, Config{SnapshotEvery: -1}) // snapshot after every effective batch
	ts := newHTTPServer(t, s)
	if _, err := reg.AddLive("live", 6); err != nil {
		t.Fatal(err)
	}
	current := func() *graph.Graph {
		e, _ := reg.Get("live")
		return e.Graph
	}
	mustIngest(t, ts.URL, "live", []map[string]any{{"u": 0, "v": 1}, {"u": 1, "v": 2}, {"u": 2, "v": 0}, {"u": 3, "v": 4}})
	for k := 0; k <= 3; k++ {
		requireKCores(t, ts.URL, "live", current(), k)
	}
	// Close the triangle into K4 on {0..3}: the 3-core appears.
	mustIngest(t, ts.URL, "live", []map[string]any{{"u": 3, "v": 0}, {"u": 3, "v": 1}, {"u": 3, "v": 2}})
	g := current()
	if v, e := kcore.NewProfile(g, kcore.Decompose(g)).At(3); v != 4 || e != 6 {
		t.Fatalf("3-core after ingest = %d vertices, %d edges, want K4's 4, 6", v, e)
	}
	for k := 0; k <= 4; k++ {
		requireKCores(t, ts.URL, "live", g, k)
	}
	if got := s.metrics.KCoreProfiles.Load(); got != 2 {
		t.Fatalf("kcore_profiles = %d over two epochs, want 2", got)
	}
}

// TestKCoreProfileBuildPanicStoresNothing: a build that panics leaves no
// profile behind, so the panic reaches the caller and the next call builds
// from scratch.
func TestKCoreProfileBuildPanicStoresNothing(t *testing.T) {
	e := &GraphEntry{Name: "g"} // no graph: the build dereferences nil
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("build over a nil graph did not panic")
			}
		}()
		e.kcoreProfile()
	}()
	if e.kcores.p != nil {
		t.Fatal("a panicked build left a profile behind")
	}
	e.Graph = gen.Complete(5)
	p, built := e.kcoreProfile()
	if v, m := p.At(4); !built || v != 5 || m != 10 {
		t.Fatalf("rebuild: built %v, 4-core %d vertices, %d edges; want a fresh build of K5", built, v, m)
	}
	if _, built := e.kcoreProfile(); built {
		t.Fatal("second call built again")
	}
}
