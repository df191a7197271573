package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"

	"graphct/internal/api"
	"graphct/internal/ring"
)

// The router role: a coordinator that owns no graphs and serves the same
// HTTP surface by proxying to workers. Graph names are partitioned over a
// consistent-hash ring keyed by each shard's leader URL, so adding a
// shard moves one shard's worth of names, not all of them. Writes go to
// the owning shard's leader; kernel reads fan across the shard's members
// (replicas first, leader as the fallback), skipping members that are
// down, behind the caller's min-epoch floor, or throwing backpressure.
// Requests and responses pass through with their headers — deadlines
// (timeout_ms in the query plus context cancellation), QoS class, epoch
// and min-epoch floors all propagate — and every proxied response gains
// X-Graphct-Worker naming the member that actually served it.

// Shard is one partition of the registry: a leader (Members[0]) that
// accepts writes and replicates to the remaining members, all of which
// serve reads.
type Shard struct {
	Members []string
}

// Leader returns the shard's write endpoint.
func (sh Shard) Leader() string { return sh.Members[0] }

// ParseShards parses the -workers topology spec: comma-separated shards,
// each a |-separated member list whose first entry is the leader, e.g.
// "http://a:8423|http://a2:8423,http://b:8423".
func ParseShards(spec string) ([]Shard, error) {
	var shards []Shard
	seen := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var sh Shard
		for _, member := range strings.Split(part, "|") {
			member = strings.TrimRight(strings.TrimSpace(member), "/")
			if member == "" {
				continue
			}
			u, err := url.Parse(member)
			if err != nil || u.Scheme == "" || u.Host == "" {
				return nil, fmt.Errorf("worker %q is not an absolute URL", member)
			}
			if seen[member] {
				return nil, fmt.Errorf("worker %q listed twice", member)
			}
			seen[member] = true
			sh.Members = append(sh.Members, member)
		}
		if len(sh.Members) == 0 {
			return nil, fmt.Errorf("empty shard in %q", spec)
		}
		shards = append(shards, sh)
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("no workers in %q", spec)
	}
	return shards, nil
}

// RouterMetrics counts the router's own traffic; worker-side serving
// metrics live on the workers.
type RouterMetrics struct {
	Reads     counter `json:"routed_reads"`  // kernel reads proxied
	Writes    counter `json:"routed_writes"` // writes proxied to shard leaders
	Failovers counter `json:"failovers"`     // member attempts that fell through to another member
	Degraded  counter `json:"degraded"`      // responses served (or synthesized) in degraded mode
}

// Router is the coordinator role's http.Handler.
type Router struct {
	shards  map[string]Shard // leader URL -> shard
	ring    *ring.Ring
	client  *http.Client
	mux     *http.ServeMux
	metrics RouterMetrics

	// next rotates the replica a read starts on, per shard, so read load
	// spreads instead of hammering the first replica.
	mu   sync.Mutex
	next map[string]int
}

// NewRouter builds a coordinator over the given shards.
func NewRouter(shards []Shard) *Router {
	leaders := make([]string, len(shards))
	byLeader := make(map[string]Shard, len(shards))
	for i, sh := range shards {
		leaders[i] = sh.Leader()
		byLeader[sh.Leader()] = sh
	}
	rt := &Router{
		shards: byLeader,
		ring:   ring.New(leaders, 0),
		client: &http.Client{}, // per-request deadlines ride on contexts
		next:   make(map[string]int),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /graphs", rt.handleListGraphs)
	mux.HandleFunc("POST /graphs", rt.handleCreateGraph)
	mux.HandleFunc("DELETE /graphs/{name}", rt.handleWrite)
	mux.HandleFunc("POST /graphs/{name}/extract", rt.handleWrite)
	mux.HandleFunc("POST /graphs/{name}/ingest", rt.handleWrite)
	mux.HandleFunc("POST /graphs/{name}/snapshot", rt.handleWrite)
	mux.HandleFunc("GET /graphs/{name}/epochs", rt.handleWrite) // leader is authoritative for epochs
	mux.HandleFunc("GET /graphs/{name}/snapshot", rt.handleWrite)
	mux.HandleFunc("GET /graphs/{name}/wal", rt.handleWrite)
	mux.HandleFunc("GET /graphs/{name}/{kernel}", rt.handleRead)
	rt.mux = mux
	return rt
}

// Metrics exposes the router's counters.
func (rt *Router) Metrics() *RouterMetrics { return &rt.metrics }

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// shardFor returns the shard owning a graph name.
func (rt *Router) shardFor(name string) Shard {
	return rt.shards[rt.ring.Get(name)]
}

// readOrder returns the members to try for one read: replicas starting at
// a rotating offset, the leader last — replicas absorb read load, the
// leader is the member guaranteed to be at the head epoch.
func (rt *Router) readOrder(sh Shard) []string {
	if len(sh.Members) == 1 {
		return sh.Members
	}
	replicas := sh.Members[1:]
	rt.mu.Lock()
	start := rt.next[sh.Leader()] % len(replicas)
	rt.next[sh.Leader()]++
	rt.mu.Unlock()
	order := make([]string, 0, len(sh.Members))
	for i := 0; i < len(replicas); i++ {
		order = append(order, replicas[(start+i)%len(replicas)])
	}
	return append(order, sh.Leader())
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "role": "router", "shards": len(rt.shards)})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, &rt.metrics)
}

// handleListGraphs fans GET /graphs to every shard leader and merges. A
// down shard degrades the listing (its graphs are omitted) rather than
// failing it; the response says so.
func (rt *Router) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	var all []graphInfo
	degraded := false
	for leader := range rt.shards {
		resp, err := rt.forward(r, leader, nil)
		if err != nil {
			degraded = true
			continue
		}
		var infos []graphInfo
		err = json.NewDecoder(resp.Body).Decode(&infos)
		drain(resp)
		if err != nil || resp.StatusCode != http.StatusOK {
			degraded = true
			continue
		}
		all = append(all, infos...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	if degraded {
		rt.metrics.Degraded.Add(1)
		w.Header().Set(api.HeaderDegraded, "partial")
	}
	if all == nil {
		all = []graphInfo{}
	}
	writeJSON(w, http.StatusOK, all)
}

// handleCreateGraph routes POST /graphs by the name inside the body.
func (rt *Router) handleCreateGraph(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	var req struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(body, &req); err != nil || req.Name == "" {
		writeError(w, http.StatusBadRequest, "body must carry the graph name to route on")
		return
	}
	rt.proxyWrite(w, r, rt.shardFor(req.Name).Leader(), body)
}

// handleWrite routes single-home requests (writes, epoch listings, the
// replication feeds) to the owning shard's leader.
func (rt *Router) handleWrite(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	rt.proxyWrite(w, r, rt.shardFor(r.PathValue("name")).Leader(), body)
}

// proxyWrite forwards one request to a single member, exactly once: the
// client owns retries (its batch_id makes them idempotent), the router
// must not multiply them. An unreachable leader is the degraded case the
// topology cannot absorb — writes have one home — so it maps to 503.
func (rt *Router) proxyWrite(w http.ResponseWriter, r *http.Request, member string, body []byte) {
	rt.metrics.Writes.Add(1)
	resp, err := rt.forward(r, member, body)
	if err != nil {
		rt.metrics.Degraded.Add(1)
		w.Header().Set(api.HeaderDegraded, "down")
		writeError(w, http.StatusServiceUnavailable, "shard leader %s unreachable: %v", member, err)
		return
	}
	defer drain(resp)
	relay(w, resp, member)
}

// handleRead serves a kernel read with replica fanout. Pass one honors
// the caller's min-epoch floor, failing over past members that are down,
// behind, missing the graph, or shedding load. If every member answered
// 412 and the caller allows staleness, pass two retries without the floor
// and marks the response degraded — an explicitly-stale answer beats an
// error when the caller said so. With no member reachable at all, the
// router answers 503 with the degradation header.
func (rt *Router) handleRead(w http.ResponseWriter, r *http.Request) {
	rt.metrics.Reads.Add(1)
	sh := rt.shardFor(r.PathValue("name"))
	order := rt.readOrder(sh)
	staleOK := r.URL.Query().Get("stale") == "allow"

	// try forwards req to each member in turn and returns the first final
	// answer: the last member's, or any that does not warrant trying the
	// next — except that a 412 is held back while hold412 is set, because
	// pass two will answer it.
	var saw412, sawAny bool
	try := func(req *http.Request, hold412 bool) (*http.Response, string) {
		for i, member := range order {
			resp, err := rt.forward(req, member, nil)
			if err != nil {
				continue
			}
			sawAny = true
			stale := resp.StatusCode == http.StatusPreconditionFailed
			saw412 = saw412 || stale
			last := i == len(order)-1
			if (last || !retryableRead(resp.StatusCode)) && !(stale && hold412) {
				return resp, member
			}
			drain(resp)
			if !last {
				rt.metrics.Failovers.Add(1)
			}
		}
		return nil, ""
	}
	resp, member := try(r, staleOK)
	if resp == nil && saw412 && staleOK {
		// Pass two: drop the freshness floor and hold nothing back. Whoever
		// answers is serving an epoch older than requested, which is what
		// the caller opted into; the header makes the degradation visible.
		r2 := r.Clone(r.Context())
		r2.Header.Del(api.HeaderMinEpoch)
		if resp, member = try(r2, false); resp != nil {
			rt.metrics.Degraded.Add(1)
			w.Header().Set(api.HeaderDegraded, "stale-epoch")
		}
	}
	if resp != nil {
		defer drain(resp)
		relay(w, resp, member)
		return
	}

	rt.metrics.Degraded.Add(1)
	w.Header().Set(api.HeaderDegraded, "down")
	if sawAny {
		writeError(w, http.StatusServiceUnavailable, "no member of shard %s could serve the read", sh.Leader())
		return
	}
	writeError(w, http.StatusServiceUnavailable, "shard %s is down (%d members tried)", sh.Leader(), len(order))
}

// retryableRead reports whether a member's answer warrants trying the
// next member: missing graph (replication lag), stale epoch, shed load or
// server failure. Client errors (400s) are authoritative wherever they
// come from.
func retryableRead(status int) bool {
	switch status {
	case http.StatusNotFound, http.StatusPreconditionFailed, http.StatusTooManyRequests:
		return true
	}
	return status >= 500
}

// forward re-issues r against member with r's path, query and headers,
// under r's context so client cancellation and deadlines propagate.
func (rt *Router) forward(r *http.Request, member string, body []byte) (*http.Response, error) {
	u := member + r.URL.Path
	if r.URL.RawQuery != "" {
		u += "?" + r.URL.RawQuery
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u, rd)
	if err != nil {
		return nil, err
	}
	for k, vs := range r.Header {
		switch k {
		case "Host", "Connection", "Keep-Alive", "Transfer-Encoding", "Upgrade", "Content-Length":
			continue
		}
		req.Header[k] = vs
	}
	return rt.client.Do(req)
}

// relay copies a member's response to the client, stamping which worker
// served it.
func relay(w http.ResponseWriter, resp *http.Response, member string) {
	h := w.Header()
	for k, vs := range resp.Header {
		h[k] = vs
	}
	h.Set(api.HeaderWorker, member)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}
