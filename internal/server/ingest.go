package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"graphct/internal/api"
	"graphct/internal/failpoint"
	"graphct/internal/stream"
	"graphct/internal/wal"
)

// Live is the mutable half of a live (ingest-enabled) graph. Successive
// registry entries published under the same name share one Live: the
// stream accumulates updates under the writer lock while readers keep
// traversing the immutable snapshots of earlier epochs.
//
// The lock serializes whole batches — apply, snapshot decision and epoch
// publication happen inside one critical section, so epochs are published
// in application order and a snapshot always captures batch boundaries,
// never a half-applied batch.
type Live struct {
	mu sync.Mutex
	st *stream.Stream

	// Idempotency window: the results of the last dedupWindow batches
	// that carried a client-assigned batch_id, so a retried batch (the
	// client saw a 5xx or lost the response after the server applied it)
	// returns the original result instead of double-applying. Guarded by
	// mu like the stream itself.
	dedup     map[string]ingestResult
	dedupRing []string
	dedupNext int

	// Durability state, guarded by mu like the stream. wal is the open
	// log segment (nil when the server has no data directory), based at
	// the snapshot epoch it extends; walFailed records a failed append and
	// forces the next opportunity to publish a snapshot, bounding the
	// window of acked-but-unlogged batches.
	wal       *wal.Log
	walFailed bool

	// replica marks a live graph maintained by the follower tailer: its
	// only writer is the replication stream, so direct ingest and forced
	// snapshots are rejected — otherwise the follower would diverge from
	// the leader state it mirrors epoch-for-epoch.
	replica bool
}

// dedupWindow bounds how many batch IDs a live graph remembers.
const dedupWindow = 1024

// remember records id's result in the idempotency window, evicting the
// oldest remembered batch once the window is full. Callers hold l.mu and
// have already made the batch durable: a remembered id answers its retry
// without applying or logging anything.
func (l *Live) remember(id string, res ingestResult) {
	if id == "" {
		return // untagged batches are not deduplicated
	}
	if l.dedup == nil {
		l.dedup = make(map[string]ingestResult, dedupWindow)
	}
	if len(l.dedupRing) < dedupWindow {
		l.dedupRing = append(l.dedupRing, id)
	} else {
		delete(l.dedup, l.dedupRing[l.dedupNext])
		l.dedupRing[l.dedupNext] = id
		l.dedupNext = (l.dedupNext + 1) % dedupWindow
	}
	l.dedup[id] = res
}

// AddLive publishes an empty live graph over n vertices under name. The
// initial entry carries the empty snapshot at a fresh epoch.
func (r *Registry) AddLive(name string, n int) (*GraphEntry, error) {
	if n <= 0 {
		return nil, fmt.Errorf("live graph needs a positive vertex count, got %d", n)
	}
	live := &Live{st: stream.New(n)}
	return r.addEntry(name, live.st.Snapshot(), live, nil), nil
}

// ingestUpdate is the JSON wire form of one update.
type ingestUpdate struct {
	U    int32 `json:"u"`
	V    int32 `json:"v"`
	Time int64 `json:"time,omitempty"`
	Del  bool  `json:"del,omitempty"`
}

// ingestResult is the ingest endpoint's response. Edges and Epoch are read
// inside the writer critical section, so when Snapshotted is true, Edges
// is exactly the edge count of the graph published at Epoch — the
// invariant the race harness checks against kernel responses.
type ingestResult struct {
	Accepted    int    `json:"accepted"`
	Inserted    int    `json:"inserted"`
	Deleted     int    `json:"deleted"`
	Ignored     int    `json:"ignored"`
	Edges       int64  `json:"edges"`
	Pending     int64  `json:"pending"`
	Epoch       uint64 `json:"epoch"`
	Snapshotted bool   `json:"snapshotted"`
}

// readBatch decodes the request body in either framing: the compact
// binary format (Content-Type application/x-graphct-updates) or a JSON
// array of {"u","v","time","del"} objects.
func (s *Server) readBatch(r *http.Request) ([]stream.Update, error) {
	if r.Header.Get("Content-Type") == stream.WireContentType {
		return stream.DecodeUpdates(r.Body, s.cfg.MaxBatch)
	}
	var ups []ingestUpdate
	if err := json.NewDecoder(r.Body).Decode(&ups); err != nil {
		return nil, fmt.Errorf("%w: %v", stream.ErrWireFormat, err)
	}
	if len(ups) > s.cfg.MaxBatch {
		return nil, fmt.Errorf("batch of %d updates exceeds limit %d", len(ups), s.cfg.MaxBatch)
	}
	out := make([]stream.Update, len(ups))
	for i, up := range ups {
		out[i] = stream.Update{U: up.U, V: up.V, Time: up.Time, Del: up.Del}
	}
	return out, nil
}

// handleIngest applies one batch of updates to a live graph. Batches pass
// their own admission pool (separate from the kernel pool, so a burst of
// writers cannot starve analysis traffic and vice versa), then apply
// under the graph's writer lock. When the accumulated effective mutations
// reach the snapshot threshold, the same critical section materializes an
// incremental CSR snapshot and publishes it as a new epoch — atomically
// invalidating cached results for the old epoch by keying.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "no graph %q", name)
		return
	}
	if e.Live == nil {
		writeError(w, http.StatusConflict, "graph %q is static; only live graphs accept updates", name)
		return
	}
	if e.Live.replica {
		writeError(w, http.StatusConflict, "graph %q is a replica; write to its leader", name)
		return
	}
	batchID := r.URL.Query().Get("batch_id")
	if len(batchID) > 128 {
		writeError(w, http.StatusBadRequest, "batch_id longer than 128 bytes")
		return
	}
	batch, err := s.readBatch(r)
	if err != nil {
		if errors.Is(err, stream.ErrWireFormat) {
			writeError(w, http.StatusBadRequest, "%v", err)
		} else {
			writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
		}
		return
	}
	if err := s.ingest.Acquire(r.Context(), ClassCheap); err != nil {
		s.writeIngestError(w, err)
		return
	}
	defer s.ingest.Release(ClassCheap)
	if s.beforeIngest != nil {
		s.beforeIngest(name)
	}

	out, dup, err := s.applyIngest(name, e.Live, batchID, batch)
	if err != nil {
		if errors.Is(err, failpoint.ErrInjected) || errors.Is(err, errIngestPanic) {
			// Synthetic failures and isolated panics are the server's
			// fault: 500 tells idempotent clients to retry the batch.
			writeError(w, http.StatusInternalServerError, "%v", err)
		} else {
			writeError(w, http.StatusUnprocessableEntity, "%v", err)
		}
		return
	}
	if dup {
		s.metrics.IngestDeduped.Add(1)
		w.Header().Set(api.HeaderDeduped, "true")
	}
	writeJSON(w, http.StatusOK, out)
}

// errIngestPanic marks a batch application that panicked and was isolated.
var errIngestPanic = errors.New("ingest panicked")

// isolateIngestPanic, deferred, turns a panic in the write path into
// errIngestPanic on *err, so a bug (or injected panic) poisons one batch —
// one request, one follower sync pass, one graph's recovery — not the
// daemon.
func (m *Metrics) isolateIngestPanic(err *error) {
	if r := recover(); r != nil {
		m.IngestPanics.Add(1)
		*err = fmt.Errorf("%w: %v", errIngestPanic, r)
	}
}

// apply is what applying one batch to a live graph means, for every driver
// of the write path — leader ingest, the follower tailer, crash recovery:
// answer a batch id still in the idempotency window from the window (dup),
// otherwise apply the batch with panic isolation and build its result.
// Epoch, Pending and Snapshotted are left for the leader, the only driver
// that publishes. The id is not claimed here but by the driver, after its
// own durable steps: the retry of a batch that failed past this point
// re-applies (a no-op per edge) and is logged, never answered unlogged.
// Callers hold l.mu (recovery owns its unpublished Live).
func (l *Live) apply(m *Metrics, id string, batch []stream.Update) (out ingestResult, dup bool, err error) {
	defer m.isolateIngestPanic(&err)
	if id != "" {
		if prev, ok := l.dedup[id]; ok {
			return prev, true, nil
		}
	}
	res, err := l.st.ApplyBatch(batch)
	if err != nil {
		return ingestResult{}, false, err
	}
	return ingestResult{
		Accepted: len(batch),
		Inserted: res.Inserted,
		Deleted:  res.Deleted,
		Ignored:  res.Ignored,
		Edges:    l.st.NumEdges(),
	}, false, nil
}

// replay applies one logged record and remembers its result at once: the
// whole write path of the follower tailer and of crash recovery, whose
// records are already durable in the log they were read from.
func (l *Live) replay(m *Metrics, rec wal.Record) error {
	out, dup, err := l.apply(m, rec.BatchID, rec.Updates)
	if err == nil && !dup {
		l.remember(rec.BatchID, out)
	}
	return err
}

// applyIngest is the leader's writer critical section: apply, then what
// only a leader does — log the batch, snapshot on threshold, and only then
// remember the completed result — all under the live graph's writer lock,
// with the publication under the same panic isolation as the apply.
func (s *Server) applyIngest(name string, live *Live, batchID string, batch []stream.Update) (out ingestResult, dup bool, err error) {
	live.mu.Lock()
	defer live.mu.Unlock()
	defer s.metrics.isolateIngestPanic(&err)
	start := time.Now()
	out, dup, err = live.apply(s.metrics, batchID, batch)
	applyDur := time.Since(start)
	if dup || err != nil {
		return out, dup, err
	}
	// Re-resolve the entry under the lock: another batch may have
	// published a newer epoch between routing and admission.
	if e, ok := s.reg.Get(name); ok {
		out.Epoch = e.Epoch
	}
	// Log the applied batch before acking. An append failure does not fail
	// the request (the batch is applied and the response truthful); it
	// flips walFailed so the next publication re-establishes durability by
	// committing a snapshot that contains this batch.
	if live.wal != nil {
		if werr := live.wal.Append(batchID, batch); werr != nil {
			s.metrics.WALErrors.Add(1)
			live.walFailed = true
		} else {
			s.metrics.WALAppends.Add(1)
		}
	}
	if live.st.SnapshotDue(s.cfg.SnapshotEvery) || live.walFailed {
		if epoch, ok := s.publishSnapshot(name, live); ok {
			out.Epoch = epoch
			out.Snapshotted = true
		}
	}
	out.Pending = live.st.PendingUpdates()
	live.remember(batchID, out)
	s.metrics.IngestBatches.Add(1)
	s.metrics.IngestUpdates.Add(int64(len(batch)))
	s.metrics.IngestMutations.Add(int64(out.Inserted + out.Deleted))
	s.metrics.ObserveLatency("ingest", applyDur)
	return out, false, nil
}

// handleSnapshot force-publishes a snapshot of a live graph regardless of
// the threshold — the flush clients call before reading kernels that must
// observe everything ingested so far. With no pending updates it reports
// the already-current epoch without materializing.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "no graph %q", name)
		return
	}
	if e.Live == nil {
		writeError(w, http.StatusConflict, "graph %q is static; nothing to snapshot", name)
		return
	}
	if e.Live.replica {
		writeError(w, http.StatusConflict, "graph %q is a replica; its epochs follow the leader", name)
		return
	}
	out, err := s.forceSnapshot(name, e.Live, e.Epoch)
	if err != nil {
		// A forced flush that cannot publish breaks the caller's
		// "everything ingested is now visible" contract: 503 says retry.
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// forceSnapshot publishes a snapshot regardless of the threshold, with
// the same panic isolation as the ingest path.
func (s *Server) forceSnapshot(name string, live *Live, epoch uint64) (out ingestResult, err error) {
	live.mu.Lock()
	defer live.mu.Unlock()
	defer s.metrics.isolateIngestPanic(&err)
	out = ingestResult{Edges: live.st.NumEdges(), Epoch: epoch}
	if live.st.PendingUpdates() > 0 || live.walFailed {
		ne, ok := s.publishSnapshot(name, live)
		if !ok {
			return ingestResult{}, fmt.Errorf("snapshot publication deferred: %w", failpoint.ErrInjected)
		}
		out.Epoch = ne
		out.Snapshotted = true
	}
	return out, nil
}

// publishSnapshot materializes live's current state and installs it as a
// new registry entry (fresh epoch) under name. Callers must hold live.mu:
// the materialize-and-publish pair is what keeps epoch order identical to
// batch application order. The snapshot.publish failpoint defers the
// publication (ok=false): pending updates stay pending and a later batch
// or forced flush retries.
//
// When the graph is durable, the same critical section commits the new
// epoch to the blob store and rotates the write-ahead log onto it
// (persistEpoch), so the durable state never runs ahead of or behind the
// published order.
func (s *Server) publishSnapshot(name string, live *Live) (uint64, bool) {
	if err := failpoint.Eval(failpoint.SnapshotPublish); err != nil {
		s.metrics.SnapshotsDeferred.Add(1)
		return 0, false
	}
	start := time.Now()
	g := live.st.Snapshot()
	ne := s.reg.addEntry(name, g, live, nil)
	s.metrics.Snapshots.Add(1)
	s.metrics.ObserveLatency("snapshot", time.Since(start))
	if live.wal != nil {
		s.persistEpoch(ne)
	}
	return ne.Epoch, true
}

func (s *Server) writeIngestError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrQueueFull) {
		s.metrics.IngestRejected.Add(1)
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	writeError(w, http.StatusGatewayTimeout, "ingest canceled: %v", err)
}

// epochHeader exposes which epoch served a kernel response, letting
// clients correlate results with ingest/snapshot responses.
func epochHeader(w http.ResponseWriter, epoch uint64) {
	w.Header().Set(api.HeaderEpoch, strconv.FormatUint(epoch, 10))
}
