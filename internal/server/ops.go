package server

import (
	"encoding/json"
	"net/http"

	"graphct/internal/failpoint"
)

// handleReadyz is the load-balancer gate: 200 only when the daemon has
// finished preloading its graphs (SetReady) and both admission queues
// still accept work. Liveness (/healthz) stays 200 through saturation —
// a busy daemon is alive — while readiness sheds new traffic.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case !s.ready.Load() && s.recovering.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "recovering", "reason": "replaying durable state",
		})
	case !s.ready.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "starting", "reason": "graph preload in progress",
		})
	case !s.pool.Accepting() || !s.ingest.Accepting():
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status":             "saturated",
			"queue_depth":        s.pool.QueueDepth(),
			"ingest_queue_depth": s.ingest.QueueDepth(),
		})
	default:
		writeJSON(w, http.StatusOK, map[string]any{
			"status": "ready", "graphs": len(s.reg.List()),
		})
	}
}

// failpointRequest is the POST /debug/failpoints body. Exactly one of
// Arm, Disarm, DisarmAll, Seed acts; listing is the GET verb.
type failpointRequest struct {
	Arm       string `json:"arm,omitempty"`        // spec term(s), ';'-separated
	Disarm    string `json:"disarm,omitempty"`     // point name
	DisarmAll bool   `json:"disarm_all,omitempty"` // drop every arm
	Seed      *int64 `json:"seed,omitempty"`       // reseed the probability RNG
}

// handleFailpoints is the debug-only fault-injection control surface.
// Unless the server was configured with Debug it answers 404, so
// production daemons do not expose a self-sabotage endpoint.
func (s *Server) handleFailpoints(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.Debug {
		writeError(w, http.StatusNotFound, "failpoint endpoint disabled (start with -debug)")
		return
	}
	reg := failpoint.Default
	if r.Method == http.MethodPost {
		var req failpointRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		switch {
		case req.Arm != "":
			if err := reg.ArmAll(req.Arm); err != nil {
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
		case req.Disarm != "":
			if !reg.Disarm(req.Disarm) {
				writeError(w, http.StatusNotFound, "no armed failpoint %q", req.Disarm)
				return
			}
		case req.DisarmAll:
			reg.DisarmAll()
		case req.Seed != nil:
			reg.Seed(*req.Seed)
		default:
			writeError(w, http.StatusBadRequest, "want one of arm, disarm, disarm_all, seed")
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"failpoints": reg.List()})
}
