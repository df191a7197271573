package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"graphct/internal/cluster"
	"graphct/internal/graph"
	"graphct/internal/stream"
)

// soakBatches builds a deterministic ingest workload: seeded batches of
// inserts and deletes over n vertices, the raw material for replaying the
// same logical sequence through different paths.
func soakBatches(seed int64, n, batches, perBatch int) [][]stream.Update {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]stream.Update, batches)
	for b := range out {
		batch := make([]stream.Update, perBatch)
		for i := range batch {
			batch[i] = stream.Update{
				U:    int32(rng.Intn(n)),
				V:    int32(rng.Intn(n)),
				Time: int64(b*perBatch + i),
				Del:  rng.Intn(5) == 0,
			}
		}
		out[b] = batch
	}
	return out
}

// graphsEqual bit-compares two CSR graphs by adjacency.
func graphsEqual(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("graph shape: got %d vertices / %d edges, want %d / %d",
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for v := int32(0); int(v) < want.NumVertices(); v++ {
		g, w := got.Neighbors(v), want.Neighbors(v)
		if len(g) != len(w) {
			t.Fatalf("vertex %d: got %d neighbors, want %d", v, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("vertex %d neighbor %d: got %d, want %d", v, i, g[i], w[i])
			}
		}
	}
}

// TestSoakIdempotentReplay is the soak/idempotency scenario: the same
// seeded ingest sequence is replayed against the daemon twice, with
// duplicate batch IDs additionally interleaved mid-stream, and the final
// snapshot must be bit-identical to ONE clean replay applied directly
// through internal/stream — duplicates must change nothing.
func TestSoakIdempotentReplay(t *testing.T) {
	const (
		vertices = 200
		batches  = 60
		perBatch = 40
	)
	workload := soakBatches(99, vertices, batches, perBatch)

	// Reference: one clean replay straight through the stream engine.
	clean := stream.New(vertices)
	for _, batch := range workload {
		if _, err := clean.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	want := clean.Snapshot()

	// Server replay: twice over, with every third batch immediately
	// re-sent under its own ID (a client retry after a lost response).
	reg := NewRegistry()
	if _, err := reg.AddLive("soak", vertices); err != nil {
		t.Fatal(err)
	}
	s := New(reg, Config{SnapshotEvery: 512})
	ts := newHTTPServer(t, s)

	post := func(id string, batch []stream.Update) (int, ingestResult) {
		t.Helper()
		type ju struct {
			U    int32 `json:"u"`
			V    int32 `json:"v"`
			Time int64 `json:"time,omitempty"`
			Del  bool  `json:"del,omitempty"`
		}
		out := make([]ju, len(batch))
		for i, up := range batch {
			out[i] = ju{U: up.U, V: up.V, Time: up.Time, Del: up.Del}
		}
		var body bytes.Buffer
		if err := json.NewEncoder(&body).Encode(out); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/graphs/soak/ingest?batch_id="+id, "application/json", &body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var res ingestResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, res
	}

	firstResults := make([]ingestResult, batches)
	for pass := 0; pass < 2; pass++ {
		for b, batch := range workload {
			id := fmt.Sprintf("soak/%d", b)
			status, res := post(id, batch)
			if status != http.StatusOK {
				t.Fatalf("pass %d batch %d: status %d", pass, b, status)
			}
			if pass == 0 {
				firstResults[b] = res
				if b%3 == 0 {
					// Interleaved duplicate: the retry must echo the
					// recorded result, not re-apply.
					status, dup := post(id, batch)
					if status != http.StatusOK || dup != res {
						t.Fatalf("batch %d duplicate: status %d result %+v, want %+v", b, status, dup, res)
					}
				}
			} else if res != firstResults[b] {
				// Second full replay: every batch is a duplicate.
				t.Fatalf("pass 1 batch %d: result %+v, want deduped %+v", b, res, firstResults[b])
			}
		}
	}
	wantDedup := int64(batches + (batches+2)/3)
	if got := s.metrics.IngestDeduped.Load(); got != wantDedup {
		t.Fatalf("ingest_deduped = %d, want %d", got, wantDedup)
	}
	if got := s.metrics.IngestBatches.Load(); got != batches {
		t.Fatalf("ingest_batches = %d, want %d (duplicates applied)", got, batches)
	}

	// Flush and fetch the final published snapshot.
	status, body := postJSON(t, ts.URL+"/graphs/soak/snapshot", nil)
	if status != http.StatusOK {
		t.Fatalf("snapshot: %d %s", status, body)
	}
	e, ok := s.reg.Get("soak")
	if !ok {
		t.Fatal("soak graph vanished")
	}
	graphsEqual(t, e.Graph, want)

	// The clustering the daemon serves from its snapshot equals the
	// clean replay's, recounted by internal/cluster on both graphs.
	if gotCC, wantCC := cluster.Global(e.Graph), cluster.Global(want); gotCC != wantCC {
		t.Fatalf("served global clustering %v, clean replay %v", gotCC, wantCC)
	}
	gotTri, wantTri := cluster.Triangles(e.Graph), cluster.Triangles(want)
	for v := range wantTri {
		if gotTri[v] != wantTri[v] {
			t.Fatalf("vertex %d: served triangle count %d, clean replay %d", v, gotTri[v], wantTri[v])
		}
	}
}
