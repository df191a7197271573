package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"graphct/internal/api"
	"graphct/internal/stream"
)

func TestParseShards(t *testing.T) {
	shards, err := ParseShards(" http://a:1 | http://a2:1 , http://b:1/ ")
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 {
		t.Fatalf("shards = %d, want 2", len(shards))
	}
	if got := shards[0].Members; len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://a2:1" {
		t.Fatalf("shard 0 members = %v", got)
	}
	if shards[1].Leader() != "http://b:1" {
		t.Fatalf("shard 1 leader = %q (trailing slash must be trimmed)", shards[1].Leader())
	}

	for _, bad := range []string{
		"",
		"  , ,",
		"a:1",
		"http://a:1,http://a:1",
		"http://a:1|http://a:1",
	} {
		if _, err := ParseShards(bad); err == nil {
			t.Errorf("ParseShards(%q) accepted", bad)
		}
	}
}

// routedCluster is a router in front of n single-member shards, each a
// fresh in-memory worker.
func routedCluster(t *testing.T, n int) (*Router, *httptest.Server, []*Server, []*httptest.Server) {
	t.Helper()
	workers := make([]*Server, n)
	backends := make([]*httptest.Server, n)
	shards := make([]Shard, n)
	for i := range workers {
		workers[i] = New(NewRegistry(), Config{})
		backends[i] = httptest.NewServer(workers[i])
		t.Cleanup(backends[i].Close)
		shards[i] = Shard{Members: []string{backends[i].URL}}
	}
	rt := NewRouter(shards)
	rts := httptest.NewServer(rt)
	t.Cleanup(rts.Close)
	return rt, rts, workers, backends
}

// TestRouterPartitionsByName drives the full write surface through a
// two-shard router: creation routes by the name in the body, every graph
// lands on exactly the ring-owning worker, ingest and deletes follow it
// there, reads come back stamped with the serving worker, and the merged
// listing covers both shards.
func TestRouterPartitionsByName(t *testing.T) {
	rt, rts, workers, backends := routedCluster(t, 2)

	// The ring is placed by the backends' random ports, so six fixed
	// names can all hash to one shard. Add names until both shards own
	// one; with two shards, 64 extra names all missing one is a bug in
	// the ring, not bad luck.
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	leaders := make(map[string]bool)
	for _, name := range names {
		leaders[rt.shardFor(name).Leader()] = true
	}
	for i := 0; len(leaders) < 2 && i < 64; i++ {
		name := fmt.Sprintf("extra-%d", i)
		names = append(names, name)
		leaders[rt.shardFor(name).Leader()] = true
	}
	for _, name := range names {
		status, body := postJSON(t, rts.URL+"/graphs", map[string]any{
			"name": name, "format": "live", "vertices": 50,
		})
		if status != http.StatusCreated && status != http.StatusOK {
			t.Fatalf("create %q: HTTP %d: %s", name, status, body)
		}
	}
	owners := make(map[string]int)
	spread := make(map[int]int)
	for _, name := range names {
		leader := rt.shardFor(name).Leader()
		var owner int = -1
		for i, b := range backends {
			_, onWorker := workers[i].reg.Get(name)
			if b.URL == leader {
				owner = i
				if !onWorker {
					t.Fatalf("%q owned by worker %d but absent there", name, i)
				}
			} else if onWorker {
				t.Fatalf("%q leaked onto non-owning worker %d", name, i)
			}
		}
		owners[name] = owner
		spread[owner]++
	}
	if len(spread) != 2 {
		t.Fatalf("all %d names hashed to one shard: %v", len(names), owners)
	}

	// Ingest through the router mutates the owner's copy.
	if status, body := postJSON(t, rts.URL+"/graphs/alpha/ingest",
		[]map[string]any{{"u": 0, "v": 1}, {"u": 1, "v": 2}}); status != http.StatusOK {
		t.Fatalf("routed ingest: HTTP %d: %s", status, body)
	}
	if e, _ := workers[owners["alpha"]].reg.Get("alpha"); e.Live.st.NumEdges() != 2 {
		t.Fatalf("owner edges = %d, want 2", e.Live.st.NumEdges())
	}

	// Reads carry the worker that served them.
	status, hdr, _ := get(t, rts.URL+"/graphs/alpha/stats")
	if status != http.StatusOK {
		t.Fatalf("routed read: HTTP %d", status)
	}
	if got := hdr.Get(api.HeaderWorker); got != backends[owners["alpha"]].URL {
		t.Fatalf("%s = %q, want owner %q", api.HeaderWorker, got, backends[owners["alpha"]].URL)
	}

	// The merged listing sees every shard's graphs exactly once.
	status, hdr, body := get(t, rts.URL+"/graphs")
	if status != http.StatusOK || hdr.Get(api.HeaderDegraded) != "" {
		t.Fatalf("routed list: HTTP %d degraded=%q", status, hdr.Get(api.HeaderDegraded))
	}
	for _, name := range names {
		if !strings.Contains(string(body), `"name":"`+name+`"`) {
			t.Fatalf("merged listing missing %q: %s", name, body)
		}
	}

	// Deletes route home too.
	req, _ := http.NewRequest(http.MethodDelete, rts.URL+"/graphs/alpha", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		t.Fatalf("routed delete: HTTP %d", resp.StatusCode)
	}
	if _, ok := workers[owners["alpha"]].reg.Get("alpha"); ok {
		t.Fatal("delete did not reach the owning worker")
	}
	if rt.Metrics().Writes.Load() == 0 || rt.Metrics().Reads.Load() == 0 {
		t.Fatal("router metrics did not count the traffic")
	}
}

// TestRouterFailoverAndDegraded covers the liveness edges: a dead replica
// is skipped (counted as a failover), a dead shard degrades the graph
// listing rather than failing it, writes to a dead leader answer 503, and
// a fully dead shard answers reads with 503 — all stamped with
// X-Graphct-Degraded.
func TestRouterFailoverAndDegraded(t *testing.T) {
	worker := New(NewRegistry(), Config{})
	if _, err := worker.AddLive("g", 10); err != nil {
		t.Fatal(err)
	}
	wts := httptest.NewServer(worker)
	defer wts.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	// Shard with a dead replica: reads fail over to the leader.
	rt := NewRouter([]Shard{{Members: []string{wts.URL, deadURL}}})
	rts := httptest.NewServer(rt)
	defer rts.Close()
	status, hdr, _ := get(t, rts.URL+"/graphs/g/stats")
	if status != http.StatusOK || hdr.Get(api.HeaderWorker) != wts.URL {
		t.Fatalf("read with dead replica: HTTP %d from %q", status, hdr.Get(api.HeaderWorker))
	}

	// Two shards, one completely down: the listing degrades, reads and
	// writes for graphs on the dead shard answer 503.
	rt2 := NewRouter([]Shard{{Members: []string{wts.URL}}, {Members: []string{deadURL}}})
	rts2 := httptest.NewServer(rt2)
	defer rts2.Close()
	status, hdr, _ = get(t, rts2.URL+"/graphs")
	if status != http.StatusOK || hdr.Get(api.HeaderDegraded) != "partial" {
		t.Fatalf("degraded list: HTTP %d degraded=%q", status, hdr.Get(api.HeaderDegraded))
	}
	var deadName string
	for i := 0; ; i++ {
		name := fmt.Sprintf("n-%d", i)
		if rt2.shardFor(name).Leader() == deadURL {
			deadName = name
			break
		}
	}
	status, hdr, _ = get(t, rts2.URL+"/graphs/"+deadName+"/stats")
	if status != http.StatusServiceUnavailable || hdr.Get(api.HeaderDegraded) != "down" {
		t.Fatalf("read on dead shard: HTTP %d degraded=%q", status, hdr.Get(api.HeaderDegraded))
	}
	status, body := postJSON(t, rts2.URL+"/graphs/"+deadName+"/ingest", []map[string]any{{"u": 0, "v": 1}})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("write to dead leader: HTTP %d: %s", status, body)
	}
}

// TestRouterMinEpochReads pins the read-your-epoch contract at the router:
// a lagging replica answering 412 is failed over, an unsatisfiable floor
// surfaces as 412, and ?stale=allow downgrades that to an explicitly
// degraded stale answer.
func TestRouterMinEpochReads(t *testing.T) {
	g := testGraph()
	lag := New(NewRegistry(), Config{})
	lagEntry := lag.reg.Add("g", g) // published first: the older epoch
	lead := New(NewRegistry(), Config{})
	leadEntry := lead.reg.Add("g", g)
	if leadEntry.Epoch <= lagEntry.Epoch {
		t.Fatalf("epochs not ordered: lead %d, lag %d", leadEntry.Epoch, lagEntry.Epoch)
	}
	leadTS := httptest.NewServer(lead)
	defer leadTS.Close()
	lagTS := httptest.NewServer(lag)
	defer lagTS.Close()

	rt := NewRouter([]Shard{{Members: []string{leadTS.URL, lagTS.URL}}})
	rts := httptest.NewServer(rt)
	defer rts.Close()

	read := func(minEpoch uint64, stale bool) (int, http.Header) {
		t.Helper()
		u := rts.URL + "/graphs/g/stats"
		if stale {
			u += "?stale=allow"
		}
		req, _ := http.NewRequest(http.MethodGet, u, nil)
		req.Header.Set(api.HeaderMinEpoch, strconv.FormatUint(minEpoch, 10))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header
	}

	// No floor: the replica serves (replicas absorb read load).
	status, hdr, _ := get(t, rts.URL+"/graphs/g/stats")
	if status != http.StatusOK || hdr.Get(api.HeaderWorker) != lagTS.URL {
		t.Fatalf("unfloored read: HTTP %d from %q, want replica %q", status, hdr.Get(api.HeaderWorker), lagTS.URL)
	}

	// A floor above the replica's epoch falls through to the leader; the
	// answer must be at or past the floor.
	status, h := read(leadEntry.Epoch, false)
	if status != http.StatusOK || h.Get(api.HeaderWorker) != leadTS.URL {
		t.Fatalf("floored read: HTTP %d from %q, want leader %q", status, h.Get(api.HeaderWorker), leadTS.URL)
	}
	if got, _ := strconv.ParseUint(h.Get(api.HeaderEpoch), 10, 64); got < leadEntry.Epoch {
		t.Fatalf("floored read served epoch %d < floor %d", got, leadEntry.Epoch)
	}
	if rt.Metrics().Failovers.Load() == 0 {
		t.Fatal("412 fall-through not counted as a failover")
	}

	// An unsatisfiable floor is an honest 412...
	if status, _ = read(leadEntry.Epoch+100, false); status != http.StatusPreconditionFailed {
		t.Fatalf("unsatisfiable floor: HTTP %d, want 412", status)
	}
	// ...unless the caller allows staleness, which trades the floor for an
	// explicitly marked degraded answer.
	status, h = read(leadEntry.Epoch+100, true)
	if status != http.StatusOK || h.Get(api.HeaderDegraded) != "stale-epoch" {
		t.Fatalf("stale fallback: HTTP %d degraded=%q", status, h.Get(api.HeaderDegraded))
	}

	// Pass two relays whatever its last member says: a member that answers
	// 412 even with the floor dropped is the caller's answer, not "down".
	stubborn := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusPreconditionFailed, "always behind")
	}))
	defer stubborn.Close()
	rts2 := httptest.NewServer(NewRouter([]Shard{{Members: []string{stubborn.URL}}}))
	defer rts2.Close()
	req, _ := http.NewRequest(http.MethodGet, rts2.URL+"/graphs/g/stats?stale=allow", nil)
	req.Header.Set(api.HeaderMinEpoch, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusPreconditionFailed || resp.Header.Get(api.HeaderWorker) != stubborn.URL {
		t.Fatalf("pass-two 412: HTTP %d from %q, want the member's 412 relayed", resp.StatusCode, resp.Header.Get(api.HeaderWorker))
	}
}

// TestClusterReplicationEndToEnd is the topology acceptance scenario: a
// router in front of one shard whose leader is durable and whose second
// member is a follower replicating over HTTP. All writes go through the
// router; the follower bootstraps from the shipped snapshot and tails the
// WAL; routed kernel reads at the leader's head epoch are answered — by
// either member — bit-identically to the leader, and read-your-epoch
// floors are never violated even while the follower lags.
func TestClusterReplicationEndToEnd(t *testing.T) {
	const vertices = 150
	leader := newDurableServer(t, t.TempDir(), Config{SnapshotEvery: 50})
	lts := httptest.NewServer(leader)
	defer lts.Close()
	fsrv, follower, fts := newFollowerServer(t, lts.URL)

	shards, err := ParseShards(lts.URL + "|" + fts.URL)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRouter(shards)
	rts := httptest.NewServer(rt)
	defer rts.Close()

	// Create and feed the graph exclusively through the router.
	if status, body := postJSON(t, rts.URL+"/graphs", map[string]any{
		"name": "g", "format": "live", "vertices": vertices,
	}); status != http.StatusCreated && status != http.StatusOK {
		t.Fatalf("create via router: HTTP %d: %s", status, body)
	}
	workload := soakBatches(17, vertices, 24, 25)
	toJSON := func(batch []stream.Update) []map[string]any {
		out := make([]map[string]any, len(batch))
		for i, u := range batch {
			out[i] = map[string]any{"u": u.U, "v": u.V, "time": u.Time, "del": u.Del}
		}
		return out
	}
	var head uint64
	for b, batch := range workload {
		status, body := postJSON(t, fmt.Sprintf("%s/graphs/g/ingest?batch_id=b-%d", rts.URL, b), toJSON(batch))
		if status != http.StatusOK {
			t.Fatalf("routed ingest %d: HTTP %d: %s", b, status, body)
		}

		// Mid-stream, while the follower lags arbitrarily, floored reads
		// through the router must never observe an epoch below the floor.
		if e, ok := leader.reg.Get("g"); ok {
			head = e.Epoch
		}
		if b%6 == 0 {
			if err := follower.SyncOnce(context.Background()); err != nil {
				t.Fatalf("SyncOnce: %v", err)
			}
		}
		req, _ := http.NewRequest(http.MethodGet, rts.URL+"/graphs/g/components", nil)
		req.Header.Set(api.HeaderMinEpoch, strconv.FormatUint(head, 10))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("floored read at epoch %d: HTTP %d", head, resp.StatusCode)
		}
		got, _ := strconv.ParseUint(resp.Header.Get(api.HeaderEpoch), 10, 64)
		if got < head {
			t.Fatalf("read-your-epoch violated: served epoch %d < floor %d", got, head)
		}
	}

	// Let the follower fully converge, then demand bit-identical kernel
	// results from both members at the same epoch, through the router.
	if err := follower.SyncOnce(context.Background()); err != nil {
		t.Fatalf("SyncOnce: %v", err)
	}
	assertReplicaMatchesLeader(t, leader, fsrv, "g")

	le, _ := leader.reg.Get("g")
	servedBy := make(map[string]bool)
	for _, kernel := range []string{"components", "stats", "degrees", "clustering"} {
		_, _, want := get(t, lts.URL+"/graphs/g/"+kernel)
		for i := 0; i < 4; i++ {
			req, _ := http.NewRequest(http.MethodGet, rts.URL+"/graphs/g/"+kernel, nil)
			req.Header.Set(api.HeaderMinEpoch, strconv.FormatUint(le.Epoch, 10))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("routed %s: HTTP %d: %s", kernel, resp.StatusCode, body)
			}
			if got, _ := strconv.ParseUint(resp.Header.Get(api.HeaderEpoch), 10, 64); got != le.Epoch {
				t.Fatalf("routed %s at epoch %d, want %d", kernel, got, le.Epoch)
			}
			if string(body) != string(want) {
				t.Fatalf("routed %s from %s differs from leader:\n%s\n%s",
					kernel, resp.Header.Get(api.HeaderWorker), body, want)
			}
			servedBy[resp.Header.Get(api.HeaderWorker)] = true
		}
	}
	// Replicas absorb reads; the leader is the fallback. With the floor at
	// the head epoch, every one of these answers came from the follower —
	// bit-identical to the leader's, which is the acceptance property.
	if !servedBy[fts.URL] || servedBy[lts.URL] {
		t.Fatalf("reads were not absorbed by the replica: %v", servedBy)
	}

	// Kill the leader: reads keep flowing from the follower (stale reads
	// of the replica's pinned epoch), which is the degradation the
	// topology promises.
	lts.Close()
	status, hdr, body := get(t, rts.URL+"/graphs/g/components")
	if status != http.StatusOK || hdr.Get(api.HeaderWorker) != fts.URL {
		t.Fatalf("read after leader death: HTTP %d from %q: %s", status, hdr.Get(api.HeaderWorker), body)
	}
	if status, _ := postJSON(t, rts.URL+"/graphs/g/ingest", toJSON(workload[0])); status != http.StatusServiceUnavailable {
		t.Fatalf("write after leader death: HTTP %d, want 503", status)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return body
}
