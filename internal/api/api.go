// Package api is the wire contract shared by every graphct process that
// speaks the daemon's HTTP protocol: the X-Graphct-* header names, the
// QoS class values, the ingest/snapshot/WAL content types and the JSON
// error shape. graphctd (server and router roles), the follower
// replication tailer, internal/load, cmd/tweetgen and the graphct CLI's
// connect mode all import these constants instead of repeating string
// literals, so the client and server halves of the protocol cannot drift
// apart silently.
//
// The package is deliberately a leaf: standard library only, importable
// from anywhere in the tree without cycles.
package api

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Response headers. Every kernel response carries HeaderEpoch (which
// graph epoch served it) and HeaderClass (which QoS lane admitted it);
// the rest appear on the paths that produce them.
const (
	// HeaderEpoch names the graph epoch that served a kernel response —
	// the handle clients use to correlate reads with ingest acks, and the
	// value a router compares against HeaderMinEpoch.
	HeaderEpoch = "X-Graphct-Epoch"
	// HeaderClass names the QoS lane (ClassCheap or ClassExpensive) the
	// request was admitted under.
	HeaderClass = "X-Graphct-Class"
	// HeaderSource says how the body was produced: "computed",
	// "coalesced", "cache" or "stale".
	HeaderSource = "X-Graphct-Source"
	// HeaderStale, on a degraded (?stale=allow) response, names the epoch
	// that actually computed the body.
	HeaderStale = "X-Graphct-Stale"
	// HeaderBreaker marks a 503 rejected by an open circuit breaker.
	HeaderBreaker = "X-Graphct-Breaker"
	// HeaderDeduped marks an ingest response answered from the
	// idempotency window instead of re-applying the batch.
	HeaderDeduped = "X-Graphct-Deduped"
)

// Request headers.
const (
	// HeaderClient identifies the caller for per-client rate limiting and
	// metric attribution.
	HeaderClient = "X-Graphct-Client"
	// HeaderMinEpoch is the read-your-epoch floor: a worker whose current
	// epoch for the graph is older answers 412 Precondition Failed, and a
	// router retries the next replica or falls through to the leader.
	HeaderMinEpoch = "X-Graphct-Min-Epoch"
)

// Routing headers, set by the router role.
const (
	// HeaderWorker names the backend member that actually served a
	// response routed through a coordinator.
	HeaderWorker = "X-Graphct-Worker"
	// HeaderDegraded marks a response (or 503) the router could only
	// produce in degraded mode: "stale-epoch" when a lagging replica
	// served below the requested min epoch, "down" when no shard member
	// was reachable.
	HeaderDegraded = "X-Graphct-Degraded"
)

// Replication headers, set by the WAL streaming endpoint.
const (
	// HeaderWALBase is the base epoch of the served WAL segment — the
	// durable snapshot it extends.
	HeaderWALBase = "X-Graphct-Wal-Base"
	// HeaderWALSealed is "true" when the served segment has been rotated:
	// it is complete, and applying all of it lands exactly on the durable
	// snapshot named by HeaderWALNext.
	HeaderWALSealed = "X-Graphct-Wal-Sealed"
	// HeaderWALNext, on a sealed segment, is the next durable epoch —
	// the epoch a follower publishes after applying the sealed segment in
	// full, and the base it tails next. It is derived from the snapshot
	// chain, not the surviving segment set: the segment based at that
	// epoch may itself have been dropped, in which case tailing it
	// answers 410 and the follower re-bootstraps.
	HeaderWALNext = "X-Graphct-Wal-Next"
)

// QoS cost classes (the values HeaderClass carries).
const (
	ClassCheap     = "cheap"
	ClassExpensive = "expensive"
)

// Content types of the non-JSON bodies on the wire.
const (
	// ContentTypeUpdates is the compact GCTU binary ingest framing
	// (internal/stream).
	ContentTypeUpdates = "application/x-graphct-updates"
	// ContentTypeSnapshot is the GCTS durable snapshot envelope
	// (internal/blob), served by GET /graphs/{name}/snapshot.
	ContentTypeSnapshot = "application/x-graphct-snapshot"
	// ContentTypeWAL is a GCTW write-ahead-log segment (internal/wal),
	// served by GET /graphs/{name}/wal.
	ContentTypeWAL = "application/x-graphct-wal"
)

// Error is the JSON error body every non-2xx response carries:
// {"error": "message"}.
type Error struct {
	Message string `json:"error"`
}

// WriteJSON writes v as the JSON response body under the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the protocol's JSON error shape under status.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, Error{Message: fmt.Sprintf(format, args...)})
}

// DecodeError extracts the server's error message from a non-2xx response
// body ("" when the body is not the protocol's error shape). The caller
// still owns the body.
func DecodeError(body []byte) string {
	var e Error
	if err := json.Unmarshal(body, &e); err != nil {
		return ""
	}
	return e.Message
}
