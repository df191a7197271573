package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"graphct/internal/api"
	"graphct/internal/blob"
	"graphct/internal/wal"
)

// Snapshot-shipping replication. The leader side is two read-only
// endpoints over artifacts durability already maintains:
//
//	GET /graphs/{name}/snapshot    newest durable GCTS snapshot, raw
//	GET /graphs/{name}/wal?from=E  the log segment based at epoch E, raw
//
// A follower bootstraps a graph from the snapshot, then polls the WAL
// segment based at that snapshot's epoch. Appends accumulate in the open
// segment; once the leader publishes the next durable epoch the segment
// is sealed (X-Graphct-Wal-Sealed, with X-Graphct-Wal-Next naming the
// epoch it leads to), and a follower that has applied all of it holds —
// bit for bit — the state of the leader's next snapshot, so it republishes
// its entry pinned at that epoch and moves on to the next segment. Epoch
// numbers are therefore comparable across the shard: "epoch E of g" is
// the same graph on every member, which is what lets a router enforce
// read-your-epoch by retrying members until one has caught up.
//
// A follower that falls behind the retention window gets 410 Gone and
// re-bootstraps from the newest snapshot; the same path covers leader
// restarts and segments dropped as incomplete after WAL append failures.
// Replays are harmless: batch_id dedup windows are rebuilt from the
// records themselves, exactly as crash recovery rebuilds them.

// handleSnapshotGet serves the newest durable snapshot of a live graph in
// its at-rest GCTS encoding, falling back through retained epochs if the
// newest blob is unreadable (the policy recovery uses: loadNewestSnapshot).
func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.durable() {
		writeError(w, http.StatusNotFound, "daemon has no data directory; nothing durable to ship")
		return
	}
	snap, data, err := s.loadNewestSnapshot(name)
	if err != nil {
		writeError(w, http.StatusNotFound, "no durable snapshot for %q: %v", name, err)
		return
	}
	w.Header().Set("Content-Type", api.ContentTypeSnapshot)
	epochHeader(w, snap.Epoch)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// handleWALGet serves the log segment based at ?from=E, raw. The response
// distinguishes the three states a tailer must react to:
//
//   - 200 with X-Graphct-Wal-Sealed absent: the open segment — apply new
//     records and poll again (a torn tail just means an append is in
//     flight);
//   - 200 with X-Graphct-Wal-Sealed: a complete segment whose full
//     application lands on the durable epoch in X-Graphct-Wal-Next;
//   - 410 Gone: the segment was pruned (or dropped as incomplete) — the
//     tailer must re-bootstrap from the newest snapshot.
func (s *Server) handleWALGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	v := r.URL.Query().Get("from")
	if v == "" {
		writeError(w, http.StatusBadRequest, "from (segment base epoch) is required")
		return
	}
	from, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad from %q", v)
		return
	}
	if !s.durable() {
		writeError(w, http.StatusNotFound, "daemon has no data directory; nothing durable to ship")
		return
	}
	segs, err := s.walSegments(name)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "list segments: %v", err)
		return
	}
	found, rotated := false, false
	for _, base := range segs {
		if base == from {
			found = true
		}
		if base > from {
			rotated = true
		}
	}
	// The epoch a sealed segment leads to comes from the durable snapshot
	// chain, not from the surviving segment set: rotation drops a segment
	// as incomplete while the snapshot it was based at survives, and
	// naming the next *existing* segment across that gap would have a
	// follower pin state at an epoch it never applied — diverging from the
	// leader while still tailing a valid segment, so no 410 ever corrects
	// it. The next durable snapshot is exactly where the rotation that
	// closed this segment landed (rotation only happens after its snapshot
	// commits, and pruning is oldest-first), so it is safe to pin.
	next := uint64(0)
	if epochs, err := s.durableEpochs(name); err == nil {
		for _, e := range epochs {
			if e > from {
				next = e // ascending: the first epoch past from is the successor
				break
			}
		}
	}
	if !found {
		// Anything durable past `from` means the segment existed and is
		// gone — the tailer's position is unrecoverable from logs alone.
		if rotated || next != 0 {
			writeError(w, http.StatusGone, "segment %d of %q pruned; re-bootstrap from the newest snapshot", from, name)
			return
		}
		writeError(w, http.StatusNotFound, "no log segment based at epoch %d for %q", from, name)
		return
	}
	if rotated && next == 0 {
		// A rotated segment implies a committed successor snapshot; if it
		// cannot be named, the seal point cannot be pinned safely — a
		// snapshot re-bootstrap always lands on correct bits.
		writeError(w, http.StatusGone, "segment %d of %q sealed but its successor epoch is unlistable; re-bootstrap from the newest snapshot", from, name)
		return
	}
	data, err := os.ReadFile(s.walPath(name, from))
	if err != nil {
		writeError(w, http.StatusInternalServerError, "read segment: %v", err)
		return
	}
	w.Header().Set("Content-Type", api.ContentTypeWAL)
	w.Header().Set(api.HeaderWALBase, strconv.FormatUint(from, 10))
	if rotated {
		w.Header().Set(api.HeaderWALSealed, "true")
		w.Header().Set(api.HeaderWALNext, strconv.FormatUint(next, 10))
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// Follower tails a leader daemon, mirroring every live graph it serves.
// One Follower drives one Server (the worker role started with -follow);
// its methods are called from a single goroutine (Run), or directly from
// tests, never both.
type Follower struct {
	srv      *Server
	leader   string
	interval time.Duration
	client   *http.Client
	state    map[string]*replState
}

// replState is the tailer's position in one graph's replication stream.
type replState struct {
	live    *Live
	base    uint64 // segment being tailed == the last pinned epoch
	applied int    // records of that segment already applied
}

// NewFollower returns a Follower that replicates leader's live graphs
// into s, polling every interval (<= 0 uses 200ms).
func NewFollower(s *Server, leader string, interval time.Duration) *Follower {
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	return &Follower{
		srv:      s,
		leader:   strings.TrimRight(leader, "/"),
		interval: interval,
		client:   &http.Client{Timeout: 30 * time.Second},
		state:    make(map[string]*replState),
	}
}

// Run polls until ctx is cancelled. Sync failures (leader down, mid-prune
// races) are counted and retried on the next tick — a follower's job is
// to converge when the leader is back, not to crash with it.
func (f *Follower) Run(ctx context.Context) {
	t := time.NewTicker(f.interval)
	defer t.Stop()
	for {
		if err := f.SyncOnce(ctx); err != nil && ctx.Err() == nil {
			f.srv.metrics.ReplicaErrors.Add(1)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// SyncOnce runs one full replication pass: discover the leader's live
// graphs, bootstrap new ones, tail known ones to the current head, and
// drop replicas of graphs the leader deleted.
func (f *Follower) SyncOnce(ctx context.Context) error {
	names, err := f.leaderLiveGraphs(ctx)
	if err != nil {
		return err
	}
	listed := make(map[string]bool, len(names))
	var firstErr error
	for _, name := range names {
		listed[name] = true
		if err := f.syncGraph(ctx, name); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("sync %q: %w", name, err)
		}
	}
	var stale []string
	for name := range f.state {
		if !listed[name] {
			stale = append(stale, name)
		}
	}
	// Absence from the listing only means deletion once the leader is past
	// boot: a restarted leader serves /graphs from its first instant while
	// warm-restart recovery still repopulates the registry in the
	// background, and dropping replicas on that partial listing would 404
	// reads exactly when the replica should cover for the leader — then
	// force full snapshot re-ships once recovery finishes.
	if len(stale) > 0 && f.leaderListingComplete(ctx) {
		for _, name := range stale {
			f.srv.reg.Remove(name)
			delete(f.state, name)
		}
	}
	return firstErr
}

// leaderListingComplete reports whether the leader's /graphs listing can
// be trusted as exhaustive. /readyz distinguishes the cases: "ready" and
// "saturated" leaders list every graph they own (a busy leader's registry
// is complete), while "starting"/"recovering" — or unreachable — leaders
// may still be rebuilding theirs.
func (f *Follower) leaderListingComplete(ctx context.Context) bool {
	status, _, body, err := f.get(ctx, "/readyz")
	if err != nil {
		return false
	}
	if status == http.StatusOK {
		return true
	}
	var st struct {
		Status string `json:"status"`
	}
	return json.Unmarshal(body, &st) == nil && st.Status == "saturated"
}

// leaderLiveGraphs lists the live graphs the leader currently serves.
func (f *Follower) leaderLiveGraphs(ctx context.Context) ([]string, error) {
	status, _, body, err := f.get(ctx, "/graphs")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("list leader graphs: HTTP %d", status)
	}
	var infos []graphInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		return nil, err
	}
	var names []string
	for _, gi := range infos {
		if gi.Live {
			names = append(names, gi.Name)
		}
	}
	return names, nil
}

// syncGraph advances one graph's replica to the leader's current head,
// crossing as many sealed segments as have accumulated since the last
// pass and pinning each one's epoch in order.
func (f *Follower) syncGraph(ctx context.Context, name string) error {
	st := f.state[name]
	for {
		if st == nil {
			// First sight of the graph, or its segment is Gone (pruned, or
			// dropped as incomplete): start from the newest snapshot.
			var err error
			if st, err = f.bootstrap(ctx, name); err != nil || st == nil {
				return err
			}
			f.state[name] = st
		}
		status, hdr, data, err := f.get(ctx, fmt.Sprintf("/graphs/%s/wal?from=%d", url.PathEscape(name), st.base))
		if err != nil {
			return err
		}
		switch status {
		case http.StatusOK:
		case http.StatusGone:
			st = nil
			continue
		case http.StatusNotFound:
			return nil // the segment does not exist yet; nothing to tail
		default:
			return fmt.Errorf("fetch wal from=%d: HTTP %d", st.base, status)
		}
		_, recs, torn, err := wal.Decode(data)
		if err != nil {
			return err
		}
		// No snapshot threshold and no local WAL — replica epochs come only
		// from the leader's seal points, and a replica's durability is the
		// leader's. A record that fails ends the pass with the position on
		// it, so the next pass retries that record, not the ones before it.
		for st.applied < len(recs) {
			st.live.mu.Lock()
			err := st.live.replay(f.srv.metrics, recs[st.applied])
			st.live.mu.Unlock()
			if err != nil {
				return err
			}
			st.applied++
			f.srv.metrics.ReplicaBatches.Add(1)
		}
		if hdr.Get(api.HeaderWALSealed) != "true" || torn {
			return nil // caught up to the open segment's fsynced head
		}
		next, err := strconv.ParseUint(hdr.Get(api.HeaderWALNext), 10, 64)
		if err != nil {
			return fmt.Errorf("sealed segment without a parseable %s", api.HeaderWALNext)
		}
		// The segment is complete and fully applied: the replica's state
		// is exactly the leader's snapshot at `next`. Publish it there and
		// start on the next segment, which may already hold records.
		f.publishPinned(name, st.live, next)
		st.base, st.applied = next, 0
	}
}

// bootstrap (re)creates a replica from the leader's newest snapshot,
// publishing it pinned at that snapshot's epoch. Returns (nil, nil) when
// the leader serves no durable snapshot for the graph (not yet committed,
// or a non-durable leader) — the next pass retries.
func (f *Follower) bootstrap(ctx context.Context, name string) (*replState, error) {
	status, _, data, err := f.get(ctx, "/graphs/"+url.PathEscape(name)+"/snapshot")
	if err != nil {
		return nil, err
	}
	if status == http.StatusNotFound {
		return nil, nil
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("fetch snapshot: HTTP %d", status)
	}
	snap, err := blob.DecodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	live := liveFromSnapshot(snap, true)
	f.srv.reg.addEntryAt(name, live.st.Snapshot(), live, snap.Epoch)
	f.srv.metrics.ReplicaBootstraps.Add(1)
	return &replState{live: live, base: snap.Epoch}, nil
}

// publishPinned materializes the replica's current state and publishes it
// at the leader's epoch.
func (f *Follower) publishPinned(name string, live *Live, epoch uint64) {
	live.mu.Lock()
	g := live.st.Snapshot()
	live.mu.Unlock()
	f.srv.reg.addEntryAt(name, g, live, epoch)
	f.srv.metrics.ReplicaEpochs.Add(1)
}

// get issues one GET against the leader and returns the answer whole:
// status, headers and the body read to its end.
func (f *Follower) get(ctx context.Context, path string) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.leader+path, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer drain(resp)
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body, err
}

// drain consumes and closes a response body for connection reuse.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}
