package server

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"

	"graphct/internal/blob"
	"graphct/internal/stream"
	"graphct/internal/wal"
)

// Durability layout under Config.DataDir:
//
//	<data-dir>/blobs/<name>/epoch-<E>.snap   durable snapshots (blob.Store)
//	<data-dir>/wal/<name>/epoch-<E>.wal      batch-log segments (internal/wal)
//
// Epochs in keys are zero-padded to 20 digits so lexicographic order is
// numeric order. The invariants, proven by the differential warm-restart
// tests:
//
//   - every acked batch is either inside the newest durable snapshot or
//     fsynced in a log segment based at or after that snapshot's epoch;
//   - recovery = newest loadable snapshot + in-order replay of those
//     segments, which bit-matches an uninterrupted replay of the same
//     batch sequence (re-applying an already-included suffix is a no-op:
//     per edge, the last operation wins either way);
//   - a log segment is deleted only after a newer durable snapshot
//     committed, and snapshots are pruned oldest-first down to
//     Config.RetainEpochs, which also serves ?epoch=E point-in-time reads.

const (
	snapSuffix = ".snap"
	walSuffix  = ".wal"
)

// liveNameRe restricts durable live-graph names to characters that map
// safely onto blob keys and file paths.
var liveNameRe = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)

// durable reports whether the server was configured with a data directory.
func (s *Server) durable() bool { return s.store != nil }

func epochLabel(epoch uint64) string { return fmt.Sprintf("epoch-%020d", epoch) }

func snapshotKey(name string, epoch uint64) string {
	return name + "/" + epochLabel(epoch) + snapSuffix
}

// parseEpochKey extracts the epoch from a key or filename of the form
// ".../epoch-<20 digits><suffix>".
func parseEpochKey(base, suffix string) (uint64, bool) {
	if !strings.HasPrefix(base, "epoch-") || !strings.HasSuffix(base, suffix) {
		return 0, false
	}
	num := strings.TrimSuffix(strings.TrimPrefix(base, "epoch-"), suffix)
	epoch, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return 0, false
	}
	return epoch, true
}

func (s *Server) walDirFor(name string) string {
	return filepath.Join(s.walDir, name)
}

func (s *Server) walPath(name string, epoch uint64) string {
	return filepath.Join(s.walDirFor(name), epochLabel(epoch)+walSuffix)
}

// durableEpochs returns the retained snapshot epochs for name, ascending.
func (s *Server) durableEpochs(name string) ([]uint64, error) {
	keys, err := s.store.List(name + "/")
	if err != nil {
		return nil, err
	}
	var epochs []uint64
	for _, key := range keys {
		if epoch, ok := parseEpochKey(key[strings.LastIndex(key, "/")+1:], snapSuffix); ok {
			epochs = append(epochs, epoch)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	return epochs, nil
}

// walSegments returns the base epochs of name's log segments, ascending.
func (s *Server) walSegments(name string) ([]uint64, error) {
	entries, err := os.ReadDir(s.walDirFor(name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var epochs []uint64
	for _, e := range entries {
		if epoch, ok := parseEpochKey(e.Name(), walSuffix); ok {
			epochs = append(epochs, epoch)
		}
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	return epochs, nil
}

// AddLive creates a live graph, and — when durability is enabled — commits
// its initial empty snapshot and opens its first log segment before
// acknowledging, so the graph exists after a crash that follows the 201.
func (s *Server) AddLive(name string, n int) (*GraphEntry, error) {
	if s.durable() && !liveNameRe.MatchString(name) {
		return nil, fmt.Errorf("durable live graph name %q must match %s", name, liveNameRe)
	}
	e, err := s.reg.AddLive(name, n)
	if err != nil {
		return nil, err
	}
	if !s.durable() {
		return e, nil
	}
	e.Live.mu.Lock()
	err = s.commitEpoch(e)
	e.Live.mu.Unlock()
	if err != nil {
		s.reg.Remove(name)
		return nil, fmt.Errorf("persist live graph %q: %w", name, err)
	}
	return e, nil
}

// persistEpoch runs inside the writer critical section right after an
// in-memory epoch publication and commits the entry as the durable
// baseline. A failed commit is counted and retried wholesale at the next
// publication.
func (s *Server) persistEpoch(ne *GraphEntry) {
	if cur, ok := s.reg.Get(ne.Name); !ok || cur != ne {
		return // deleted (or replaced) mid-publication; nothing to persist
	}
	if err := s.commitEpoch(ne); err != nil {
		s.metrics.PersistErrors.Add(1)
	}
}

// commitEpoch makes e, the entry just published for its live graph, the
// graph's durable baseline: commit its snapshot to the store, rotate the
// log onto the new base — for a new or recovered graph, open its first
// segment — then discard segments and snapshots the new snapshot made
// redundant. Callers hold e.Live.mu. Any failure leaves the previous
// segment accumulating (recovery falls back to the older snapshot plus a
// longer tail).
func (s *Server) commitEpoch(e *GraphEntry) error {
	name, live := e.Name, e.Live
	data, err := blob.EncodeSnapshot(blob.Snapshot{Epoch: e.Epoch, LastTime: live.st.LastTime(), Graph: e.Graph})
	if err != nil {
		return err
	}
	if err := s.store.Put(snapshotKey(name, e.Epoch), data); err != nil {
		return err
	}
	s.metrics.SnapshotsPersisted.Add(1)
	s.metrics.SnapshotBytes.Add(int64(len(data)))

	nl, err := wal.Create(s.walPath(name, e.Epoch), e.Epoch)
	if err != nil {
		// The snapshot committed, so recovery would start from it and skip
		// whatever the previous segment goes on to log: force another
		// publication to retry the rotation.
		if live.wal != nil {
			live.walFailed = true
		}
		return err
	}
	old := live.wal
	incomplete := live.walFailed
	live.wal, live.walFailed = nl, false
	if old != nil {
		old.Close()
		// A segment missing an acked batch (failed append forced this
		// publication) must not be retained: a follower that finished it
		// would pin the new epoch onto a state missing that batch. Deleting
		// it turns the follower's next poll into a 410 → snapshot
		// re-bootstrap, which lands on the correct bits.
		if incomplete {
			os.Remove(old.Path())
		}
	}
	s.pruneDurable(name, e.Epoch)
	return nil
}

// pruneDurable removes snapshots beyond the retention window and log
// segments older than the oldest retained snapshot. Sealed segments
// inside the window are kept even though recovery no longer needs them:
// they are what a follower mid-tail finishes to pin the next epoch
// without re-shipping a whole snapshot.
func (s *Server) pruneDurable(name string, newest uint64) {
	epochs, err := s.durableEpochs(name)
	if err != nil {
		return
	}
	for len(epochs) > s.cfg.RetainEpochs { // New clamps it to at least 1
		if err := s.store.Delete(snapshotKey(name, epochs[0])); err != nil {
			return
		}
		epochs = epochs[1:]
	}
	oldest := newest
	if len(epochs) > 0 && epochs[0] < oldest {
		oldest = epochs[0]
	}
	if segs, err := s.walSegments(name); err == nil {
		for _, base := range segs {
			if base < oldest {
				os.Remove(s.walPath(name, base))
			}
		}
	}
}

// dropDurable deletes every durable artifact of name (graph deletion).
func (s *Server) dropDurable(name string, live *Live) {
	if live != nil {
		live.mu.Lock()
		if live.wal != nil {
			live.wal.Close()
			live.wal = nil
		}
		live.mu.Unlock()
	}
	if keys, err := s.store.List(name + "/"); err == nil {
		for _, key := range keys {
			_ = s.store.Delete(key)
		}
	}
	_ = os.RemoveAll(s.walDirFor(name))
}

// RecoverAll warm-restarts every graph found in the data directory:
// newest loadable snapshot + in-order log replay, published at a fresh
// epoch and re-persisted so the steady-state invariant (newest snapshot
// epoch == open segment base) holds again. It returns how many graphs
// were recovered. Callers flip SetRecovering around it so /readyz
// reports the replay.
func (s *Server) RecoverAll() (int, error) {
	if !s.durable() {
		return 0, nil
	}
	start := time.Now()
	keys, err := s.store.List("")
	if err != nil {
		return 0, err
	}
	names := make(map[string]bool)
	maxEpoch := uint64(0)
	for _, key := range keys {
		slash := strings.LastIndex(key, "/")
		if slash <= 0 {
			continue
		}
		epoch, ok := parseEpochKey(key[slash+1:], snapSuffix)
		if !ok {
			continue
		}
		names[key[:slash]] = true
		if epoch > maxEpoch {
			maxEpoch = epoch
		}
	}
	// Also scan segment bases: the counter must clear every durable epoch
	// even if a snapshot was pruned or lost while its segment survived.
	for name := range names {
		if segs, err := s.walSegments(name); err == nil && len(segs) > 0 {
			if last := segs[len(segs)-1]; last > maxEpoch {
				maxEpoch = last
			}
		}
	}
	advanceEpochCounter(maxEpoch)

	recovered := 0
	var firstErr error
	sorted := make([]string, 0, len(names))
	for name := range names {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	for _, name := range sorted {
		if err := s.recoverGraph(name); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("recover %q: %w", name, err)
			}
			continue
		}
		recovered++
	}
	s.metrics.RecoveredGraphs.Add(int64(recovered))
	s.metrics.RecoveryMs.Store(time.Since(start).Milliseconds())
	return recovered, firstErr
}

// loadNewestSnapshot returns the newest snapshot of name that passes its
// integrity frames — decoded, and as the raw bytes a follower is shipped —
// falling back through retained epochs on corruption.
func (s *Server) loadNewestSnapshot(name string) (blob.Snapshot, []byte, error) {
	epochs, err := s.durableEpochs(name)
	if err != nil {
		return blob.Snapshot{}, nil, err
	}
	for i := len(epochs) - 1; i >= 0; i-- {
		data, err := s.store.Get(snapshotKey(name, epochs[i]))
		if err != nil {
			continue
		}
		if snap, err := blob.DecodeSnapshot(data); err == nil {
			return snap, data, nil
		}
	}
	return blob.Snapshot{}, nil, fmt.Errorf("no loadable snapshot among %d retained epochs", len(epochs))
}

// liveFromSnapshot rebuilds the mutable half of a live graph from a durable
// snapshot, for crash recovery and follower bootstrap alike — which is what
// keeps a replica's materialized snapshots bit-identical to the leader's
// for the same adjacency. Triangle counts are re-established by an exact
// static count, which equals the incrementally maintained counters for the
// same adjacency (both are exact integers).
func liveFromSnapshot(snap blob.Snapshot, replica bool) *Live {
	st := stream.FromGraph(snap.Graph)
	st.Touch(snap.LastTime)
	return &Live{st: st, replica: replica}
}

// recoverGraph rebuilds one live graph from its durable state.
func (s *Server) recoverGraph(name string) error {
	snap, _, err := s.loadNewestSnapshot(name)
	if err != nil {
		return err
	}
	live := liveFromSnapshot(snap, false)

	// Replay segments based at or after the loaded snapshot, in order.
	// Records already contained in the snapshot (a crash between snapshot
	// commit and log rotation) re-apply as no-ops; a torn tail stops at
	// the last intact record. replay re-remembers batch ids, so a client
	// retrying its in-flight batch across the restart is deduplicated.
	segs, err := s.walSegments(name)
	if err != nil {
		return err
	}
	replayed := 0
	for _, base := range segs {
		if base < snap.Epoch {
			continue
		}
		_, n, torn, err := wal.Replay(s.walPath(name, base), func(rec wal.Record) error {
			return live.replay(s.metrics, rec)
		})
		if err != nil {
			return err
		}
		if torn {
			s.metrics.WALTornTails.Add(1)
		}
		replayed += n
	}
	s.metrics.RecoveredBatches.Add(int64(replayed))

	// Publish the recovered state at a fresh epoch — the one every
	// remembered result is answered at — and make it the new durable
	// baseline.
	live.mu.Lock()
	defer live.mu.Unlock()
	e := s.reg.addEntry(name, live.st.Snapshot(), live, nil)
	for id, res := range live.dedup {
		res.Epoch = e.Epoch
		live.dedup[id] = res
	}
	return s.commitEpoch(e)
}

// epochEntry resolves a point-in-time view: the graph as of durable epoch
// E, served from a retained snapshot. The current entry is returned
// as-is when E is its epoch; otherwise the snapshot is loaded through a
// small cache so repeated historical analyses do not re-parse it.
func (s *Server) epochEntry(name string, epoch uint64, cur *GraphEntry) (*GraphEntry, error) {
	if cur != nil && cur.Epoch == epoch {
		return cur, nil
	}
	if !s.durable() {
		return nil, fmt.Errorf("point-in-time reads need a daemon started with -data-dir")
	}
	cacheKey := name + "@" + strconv.FormatUint(epoch, 10)
	s.histMu.Lock()
	if e, ok := s.hist[cacheKey]; ok {
		s.histMu.Unlock()
		return e, nil
	}
	s.histMu.Unlock()
	data, err := s.store.Get(snapshotKey(name, epoch))
	if err != nil {
		return nil, err
	}
	snap, err := blob.DecodeSnapshot(data)
	if err != nil {
		return nil, err
	}
	e := &GraphEntry{Name: name, Epoch: epoch, Graph: snap.Graph}
	s.histMu.Lock()
	if len(s.hist) >= histCap {
		for k := range s.hist { // evict an arbitrary entry; the cache is tiny
			delete(s.hist, k)
			break
		}
	}
	s.hist[cacheKey] = e
	s.histMu.Unlock()
	return e, nil
}

// histCap bounds the historical-entry cache: point-in-time reads are an
// analytical side path, so a handful of resident epochs is plenty.
const histCap = 4

// handleEpochs lists the epochs a graph can serve: the current in-memory
// one plus every retained durable snapshot (usable as ?epoch=E).
func (s *Server) handleEpochs(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "no graph %q", name)
		return
	}
	durable := []uint64{}
	if s.durable() {
		epochs, err := s.durableEpochs(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "list epochs: %v", err)
			return
		}
		durable = epochs
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"name":    name,
		"current": e.Epoch,
		"durable": durable,
		"live":    e.Live != nil,
	})
}
