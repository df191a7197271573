package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the harness made into a layer. Spans live in
// memory until the run ends; Parent links a span to the one that caused
// it and Req groups the spans of one request or one pipeline repetition.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Req     string  `json:"req,omitempty"`
	Note    string  `json:"note,omitempty"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// tracer records spans from the benchmark's own files, around its calls
// into the layers. A nil tracer, or one that is switched off, records
// nothing, which is how the untraced run and the untraced half of a
// traced serving window stay free of tracing cost.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// add records a finished span and returns its id (0 when not recording,
// which is also the id of "no parent").
func (t *tracer) add(parent int, name, req, note string, start, end time.Time) int {
	if !t.enabled() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Req: req, Note: note,
		StartUs: float64(start.Sub(t.t0)) / 1e3, EndUs: float64(end.Sub(t.t0)) / 1e3,
	})
	return id
}

// open reserves a span whose end is filled in by close, for spans that
// enclose others (a phase, a repetition).
func (t *tracer) open(parent int, name, req string) int {
	now := time.Now()
	return t.add(parent, name, req, "", now, now)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].EndUs = float64(time.Since(t.t0)) / 1e3
	t.mu.Unlock()
}

// layerTotals is a name's count, total time, and self time: total minus
// the part its direct children cover.
type layerTotals struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// write dumps the spans and their per-name totals to
// <dir>/trace-<workload>.json. reference lists the per-layer metrics the
// run printed without measuring them, each with the workload whose
// tiny-size reference run supplied it.
func (t *tracer) write(dir, workload string, seed int64, reference map[string]string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	childUs := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		childUs[s.Parent] += s.EndUs - s.StartUs
	}
	totals := make(map[string]*layerTotals)
	for _, s := range t.spans {
		lt := totals[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			totals[s.Name] = lt
		}
		d := s.EndUs - s.StartUs
		lt.Count++
		lt.TotalS += d / 1e6
		// Concurrent children (two clients under one window) can cover
		// more than the parent's own duration; self time is then zero.
		lt.SelfS += max(0, d-childUs[s.ID]) / 1e6
	}
	data, err := json.Marshal(map[string]any{
		"workload": workload, "seed": seed, "reference_metrics": reference, "totals": totals, "spans": t.spans,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
