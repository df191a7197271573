package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"graphct/internal/api"
	"graphct/internal/core"
	"graphct/internal/failpoint"
)

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "graphs": len(s.reg.List())})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.metrics.doc(s.pool, s.ingest, s.cache, s.breakers, s.limiter))
}

type graphInfo struct {
	Name     string `json:"name"`
	Epoch    uint64 `json:"epoch"`
	Vertices int    `json:"vertices"`
	Edges    int64  `json:"edges"`
	Directed bool   `json:"directed"`
	Live     bool   `json:"live,omitempty"`
}

func entryInfo(e *GraphEntry) graphInfo {
	return graphInfo{
		Name:     e.Name,
		Epoch:    e.Epoch,
		Vertices: e.Graph.NumVertices(),
		Edges:    e.Graph.NumEdges(),
		Directed: e.Graph.Directed(),
		Live:     e.Live != nil,
	}
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.List()
	out := make([]graphInfo, len(entries))
	for i, e := range entries {
		out[i] = entryInfo(e)
	}
	writeJSON(w, http.StatusOK, out)
}

type loadRequest struct {
	Name     string `json:"name"`
	Format   string `json:"format"` // dimacs | edgelist | binary | live
	Path     string `json:"path"`
	Directed bool   `json:"directed"`
	// Vertices sizes a live graph (format "live"), which starts empty and
	// grows through POST /graphs/{name}/ingest instead of a file.
	Vertices int `json:"vertices,omitempty"`
}

func (s *Server) handleLoadGraph(w http.ResponseWriter, r *http.Request) {
	var req loadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Format == "live" {
		if req.Name == "" {
			writeError(w, http.StatusBadRequest, "name is required")
			return
		}
		e, err := s.AddLive(req.Name, req.Vertices)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, "create live %q: %v", req.Name, err)
			return
		}
		writeJSON(w, http.StatusCreated, entryInfo(e))
		return
	}
	if req.Name == "" || req.Format == "" || req.Path == "" {
		writeError(w, http.StatusBadRequest, "name, format and path are required")
		return
	}
	e, err := s.reg.Load(req.Name, req.Format, req.Path, req.Directed)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "load %q: %v", req.Name, err)
		return
	}
	writeJSON(w, http.StatusCreated, entryInfo(e))
}

func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "no graph %q", name)
		return
	}
	// A replica's lifecycle follows its leader: deleting one locally would
	// leave the tailer holding the stale Live, and the next sealed segment
	// it finishes would silently republish the graph.
	if e.Live != nil && e.Live.replica {
		writeError(w, http.StatusConflict, "graph %q is a replica; delete it on its leader", name)
		return
	}
	if !s.reg.Remove(name) {
		writeError(w, http.StatusNotFound, "no graph %q", name)
		return
	}
	// Deleting a durable live graph also deletes its snapshots and log:
	// the name is gone, not just the memory.
	if s.durable() && e.Live != nil {
		s.dropDurable(name, e.Live)
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

type extractRequest struct {
	Component int    `json:"component"` // 1 = largest
	As        string `json:"as"`
}

// handleExtract registers the rank-th largest component of a graph as a
// new named graph — the server analogue of the script's
// "extract component N => file.bin", with the registry standing in for
// the filesystem.
func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	e, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "no graph %q", name)
		return
	}
	var req extractRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.As == "" {
		writeError(w, http.StatusBadRequest, "\"as\" (target graph name) is required")
		return
	}
	if req.Component == 0 {
		req.Component = 1
	}
	tk := core.New(e.Graph, core.WithSeed(s.cfg.Seed))
	if err := tk.ExtractComponent(req.Component); err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	// The derived entry keeps an id trail to the loaded graph: the
	// toolkit's orig ids point into the parent's internal labels, which
	// the parent's own translation lifts to client-visible ids.
	var orig []int32
	if sub := tk.OrigIDs(); sub != nil {
		orig = make([]int32, len(sub))
		for i, v := range sub {
			orig[i] = e.ToExternal(v)
		}
	} else if e.Orig != nil {
		orig = e.Orig
	}
	ne := s.reg.AddWithOrig(req.As, tk.Graph(), orig)
	writeJSON(w, http.StatusCreated, entryInfo(ne))
}

// cacheResult inserts a computed kernel result under its epoch-scoped key
// and refreshes the epochless stale entry behind ?stale=allow. The
// cache.put failpoint drops both insertions — degrading hit rate, never
// the response. An empty staleKey skips the stale refresh: historical
// (?epoch=E) reads must not masquerade as the latest result.
func (s *Server) cacheResult(key, staleKey string, epoch uint64, body []byte) {
	if err := failpoint.Eval(failpoint.CachePut); err != nil {
		s.metrics.CacheDropped.Add(1)
		return
	}
	// A rejected admission with caching enabled means the value outgrew
	// the cost-aware entry bound (or the whole cache): served, not stored.
	if !s.cache.Put(key, body) && s.cfg.CacheBytes > 0 {
		s.metrics.CacheOversized.Add(1)
	}
	if staleKey != "" {
		s.cache.Put(staleKey, encodeStale(epoch, body))
	}
}

// handleKernel is the concurrent serving path: cache lookup, circuit
// breaker, then singleflight-coalesced execution through the admission
// pool with panic isolation and optional stale fallback.
func (s *Server) handleKernel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	kernel := r.PathValue("kernel")
	e, ok := s.reg.Get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "no graph %q", name)
		return
	}
	q := r.URL.Query() // parsed once: every request, cache hits included, pays for it
	// ?epoch=E pins the request to a durable point-in-time snapshot
	// instead of the current entry (which stays the default).
	historical := false
	if v := q.Get("epoch"); v != "" {
		epoch, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad epoch %q", v)
			return
		}
		he, err := s.epochEntry(name, epoch, e)
		if err != nil {
			writeError(w, http.StatusNotFound, "epoch %d of %q: %v", epoch, name, err)
			return
		}
		historical = he != e
		e = he
	}
	// Read-your-epoch: a client (usually a router acting for one) that has
	// observed epoch E declares it as a floor; an entry still behind it
	// answers 412 so the caller can retry a member that has caught up.
	if v := r.Header.Get(api.HeaderMinEpoch); v != "" {
		min, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad %s %q", api.HeaderMinEpoch, v)
			return
		}
		if e.Epoch < min {
			epochHeader(w, e.Epoch)
			writeError(w, http.StatusPreconditionFailed,
				"graph %q at epoch %d, behind requested minimum %d", name, e.Epoch, min)
			return
		}
	}
	params, run, err := s.parseKernel(kernel, e, q)
	if err != nil {
		if errors.Is(err, errUnknownKernel) {
			writeError(w, http.StatusNotFound, "unknown kernel %q", kernel)
		} else {
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	// Validate the deadline before the cache lookup so a malformed
	// timeout_ms is a 400 regardless of whether the result is cached.
	timeout := s.cfg.DefaultTimeout
	if v := q.Get("timeout_ms"); v != "" {
		ms, err := strconv.Atoi(v)
		if err != nil || ms <= 0 {
			writeError(w, http.StatusBadRequest, "bad timeout_ms %q", v)
			return
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	staleOK := false
	switch q.Get("stale") {
	case "", "deny":
	case "allow":
		staleOK = true
	default:
		writeError(w, http.StatusBadRequest, "bad stale %q (want allow or deny)", q.Get("stale"))
		return
	}
	// Classify before any resource is consumed: the class decides which
	// admission lane the request competes in, and the header lets clients
	// (and the load harness) attribute the latency they saw to a lane.
	class := costClass(kernel)
	w.Header().Set(api.HeaderClass, class)
	// Per-client fairness gates the whole serving path, cache hits
	// included: a client above its rate is told to back off even when the
	// answer would have been free, otherwise one hot client could still
	// monopolize the socket and starve the metrics a fair share.
	if ok, retry := s.limiter.Allow(r.Header.Get(ClientHeader)); !ok {
		s.metrics.RateLimited.Add(1)
		secs := int(retry/time.Second) + 1
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, "client rate limit exceeded (retry in %ds)", secs)
		return
	}
	s.metrics.Requests.Add(1)

	// The whole request — cache key, coalescing group, kernel input — is
	// pinned to the entry resolved above, so a snapshot published mid-flight
	// cannot tear the response; the header tells clients which epoch served.
	epochHeader(w, e.Epoch)
	key := fmt.Sprintf("%s@%d/%s?%s", e.Name, e.Epoch, kernel, params)
	staleKey := staleCacheKey(e.Name, kernel, params)
	if historical {
		staleKey = "" // point-in-time results never refresh the stale entry
	}
	if body, ok := s.cache.Get(key); ok {
		s.metrics.CacheHits.Add(1)
		s.writeRaw(w, body, "cache")
		return
	}
	s.metrics.CacheMiss.Add(1)

	// Cache hits serve even through an open breaker (they cost no kernel
	// run); everything past this point risks an execution, so a tripped
	// (graph, kernel) pair short-circuits to 503 — or a stale hit.
	record, err := s.breakers.Allow(name + "/" + kernel)
	if err != nil {
		s.metrics.BreakerRejected.Add(1)
		if staleOK && s.serveStale(w, staleKey) {
			return
		}
		w.Header().Set(api.HeaderBreaker, "open")
		s.writeKernelError(w, err)
		return
	}

	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	// Coalesce identical concurrent requests: the leader runs the kernel
	// under its own deadline; followers share the leader's result (and,
	// if the leader is cancelled, its cancellation).
	body, err, shared := s.flight.Do(key, func() ([]byte, error) {
		if err := s.pool.Acquire(ctx, class); err != nil {
			return nil, err
		}
		defer s.pool.Release(class)
		s.metrics.KernelStarted(kernel)
		if s.beforeKernel != nil {
			s.beforeKernel(kernel)
		}
		start := time.Now()
		res, err := s.runKernel(ctx, class, run)
		s.metrics.ObserveLatency(kernel, time.Since(start))
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(res)
		if err != nil {
			return nil, err
		}
		s.cacheResult(key, staleKey, e.Epoch, b)
		return b, nil
	})
	if shared {
		s.metrics.Coalesced.Add(1)
	}
	// Only the flight leader's outcome feeds the breaker, and only
	// outcomes that say something about the kernel: backpressure and
	// client cancellations are skipped.
	switch {
	case shared, errors.Is(err, ErrQueueFull),
		errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		record(breakerSkip)
	case err != nil:
		record(breakerFailure)
	default:
		record(breakerSuccess)
	}
	if err != nil {
		if staleOK && errors.Is(err, ErrQueueFull) && s.serveStale(w, staleKey) {
			return
		}
		s.writeKernelError(w, err)
		return
	}
	source := "computed"
	if shared {
		source = "coalesced"
	}
	s.writeRaw(w, body, source)
}

// staleCacheKey is the epochless cache key holding the latest computed
// result for (graph, kernel, params), whatever epoch produced it. The
// NUL separator keeps it disjoint from epoch-scoped keys, which never
// contain one.
func staleCacheKey(name, kernel, params string) string {
	return "stale\x00" + name + "/" + kernel + "?" + params
}

// encodeStale prefixes body with the big-endian epoch that computed it.
func encodeStale(epoch uint64, body []byte) []byte {
	out := make([]byte, 8+len(body))
	binary.BigEndian.PutUint64(out, epoch)
	copy(out[8:], body)
	return out
}

// serveStale answers a rejected request from the epochless stale entry,
// if one exists: HTTP 200 with X-Graphct-Stale naming the epoch that
// actually computed the body (X-Graphct-Epoch still names the current
// one). Returns false when nothing stale is cached.
func (s *Server) serveStale(w http.ResponseWriter, staleKey string) bool {
	raw, ok := s.cache.Get(staleKey)
	if !ok || len(raw) < 8 {
		return false
	}
	s.metrics.StaleServed.Add(1)
	w.Header().Set(api.HeaderStale, strconv.FormatUint(binary.BigEndian.Uint64(raw), 10))
	s.writeRaw(w, raw[8:], "stale")
	return true
}

func (s *Server) writeRaw(w http.ResponseWriter, body []byte, source string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(api.HeaderSource, source)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

func (s *Server) writeKernelError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		s.metrics.Rejected.Add(1)
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, ErrBreakerOpen):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.metrics.Canceled.Add(1)
		writeError(w, http.StatusGatewayTimeout, "kernel canceled: %v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}
