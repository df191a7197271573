// Package failpoint implements named fault-injection points for the
// serving path. A failpoint is a compiled-in hook (an Eval call) that is
// inert until armed; arming it attaches an action — return an error, add
// latency, or panic — with an optional hit budget and firing probability.
// The chaos harness and operators drive the same registry: tests arm
// points programmatically, graphctd arms them from the GRAPHCT_FAILPOINTS
// environment variable and (when -debug is set) a POST /debug/failpoints
// endpoint.
//
// The spec grammar, term by term (terms separated by ';'):
//
//	name=action[(param)][*budget][%probability]
//
//	kernel.exec=panic(boom)*1        panic once, then disarm
//	stream.apply=error%10            fail 10% of batch applications
//	cache.put=delay(5ms)*100%50      50% chance of a 5ms stall, 100 times
//
// Actions: error (param = message), delay (param = Go duration, required),
// panic (param = message). A missing budget is unlimited; a missing
// probability fires every evaluation. Probabilities are percentages in
// (0, 100].
package failpoint

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The catalogue of points compiled into the serving path. Arming any
// other name is legal (the spec parser cannot know every Eval site) but
// does nothing until code evaluates it.
const (
	// KernelExec fires inside a kernel pool slot, right before the kernel
	// body runs. An error becomes a 500; a panic exercises the per-kernel
	// recover isolation.
	KernelExec = "kernel.exec"
	// ExpensiveExec fires right after KernelExec, for expensive-class
	// kernels only (kcentrality, diameter). A delay there holds an
	// expensive slot for a fixed time whatever the kernel itself costs.
	ExpensiveExec = "kernel.exec.expensive"
	// StreamApply fires at the top of stream.ApplyBatch, before any
	// mutation, so an injected failure always leaves the stream unchanged.
	StreamApply = "stream.apply"
	// CachePut fires before a kernel result is inserted into the result
	// cache; a failure drops the insertion (the response is still served).
	CachePut = "cache.put"
	// SnapshotPublish fires before a live graph materializes an epoch
	// snapshot; a failure defers publication to a later batch.
	SnapshotPublish = "snapshot.publish"
	// BlobPut fires before the filesystem blob store commits an object;
	// a failure leaves the store unchanged (durable snapshot writes are
	// retried at the next publication).
	BlobPut = "blob.put"
	// WALAppend fires before a batch is appended to the write-ahead log;
	// a failure skips the append and forces the next snapshot publication
	// to rotate the log, bounding the unlogged window.
	WALAppend = "wal.append"
)

// ErrInjected is the sentinel every injected error wraps, letting callers
// distinguish synthetic failures from organic ones.
var ErrInjected = errors.New("failpoint injected failure")

// Error is the error an armed error-action failpoint returns.
type Error struct {
	Point string
	Msg   string
}

func (e *Error) Error() string { return fmt.Sprintf("failpoint %s: %s", e.Point, e.Msg) }

// Unwrap makes errors.Is(err, ErrInjected) hold for every injected error.
func (e *Error) Unwrap() error { return ErrInjected }

// PanicValue is the value a panic-action failpoint panics with, so
// recover sites can tell injected panics from organic ones.
type PanicValue struct {
	Point string
	Msg   string
}

func (p PanicValue) String() string { return fmt.Sprintf("failpoint %s: %s", p.Point, p.Msg) }

// Action is what an armed failpoint does when it fires.
type Action int

const (
	ActionError Action = iota
	ActionDelay
	ActionPanic
)

func (a Action) String() string {
	switch a {
	case ActionError:
		return "error"
	case ActionDelay:
		return "delay"
	case ActionPanic:
		return "panic"
	}
	return "unknown"
}

// point is one armed injection site.
type point struct {
	action Action
	msg    string
	delay  time.Duration
	budget int64 // remaining fires; < 0 means unlimited
	prob   float64
	evals  int64
	fires  int64
}

// Status reports one armed point for listings.
type Status struct {
	Name        string  `json:"name"`
	Spec        string  `json:"spec"`
	Budget      int64   `json:"budget"` // remaining fires, -1 = unlimited
	Probability float64 `json:"probability_pct"`
	Evals       int64   `json:"evals"`
	Fires       int64   `json:"fires"`
}

// Registry holds armed failpoints. The zero-value-free constructor wires
// a seeded RNG so probabilistic arms are reproducible under Seed.
type Registry struct {
	mu     sync.Mutex
	rng    *rand.Rand
	points map[string]*point
}

// Default is the process-wide registry every compiled-in Eval site uses.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		rng:    rand.New(rand.NewSource(1)),
		points: make(map[string]*point),
	}
}

// Seed re-seeds the probability RNG, making a chaos run reproducible.
func (r *Registry) Seed(seed int64) {
	r.mu.Lock()
	r.rng = rand.New(rand.NewSource(seed))
	r.mu.Unlock()
}

// termRe parses one spec term; see the package comment for the grammar.
var termRe = regexp.MustCompile(`^(error|delay|panic)(?:\(([^)]*)\))?(?:\*(\d+))?(?:%([0-9.]+))?$`)

// Arm arms one point from a single spec term ("name=action...").
// Re-arming a name replaces its previous arm.
func (r *Registry) Arm(term string) error {
	name, rest, ok := strings.Cut(strings.TrimSpace(term), "=")
	name = strings.TrimSpace(name)
	if !ok || name == "" {
		return fmt.Errorf("failpoint: bad term %q (want name=action[(param)][*budget][%%prob])", term)
	}
	m := termRe.FindStringSubmatch(strings.TrimSpace(rest))
	if m == nil {
		return fmt.Errorf("failpoint: bad action %q in term %q", rest, term)
	}
	p := &point{budget: -1, prob: 100}
	switch m[1] {
	case "error":
		p.action = ActionError
		p.msg = m[2]
		if p.msg == "" {
			p.msg = "injected error"
		}
	case "delay":
		p.action = ActionDelay
		d, err := time.ParseDuration(m[2])
		if err != nil || d < 0 {
			return fmt.Errorf("failpoint: delay needs a duration param, got %q", m[2])
		}
		p.delay = d
	case "panic":
		p.action = ActionPanic
		p.msg = m[2]
		if p.msg == "" {
			p.msg = "injected panic"
		}
	}
	if m[3] != "" {
		n, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil || n <= 0 {
			return fmt.Errorf("failpoint: bad budget %q in term %q", m[3], term)
		}
		p.budget = n
	}
	if m[4] != "" {
		pct, err := strconv.ParseFloat(m[4], 64)
		if err != nil || pct <= 0 || pct > 100 {
			return fmt.Errorf("failpoint: bad probability %q in term %q (want (0,100])", m[4], term)
		}
		p.prob = pct
	}
	r.mu.Lock()
	r.points[name] = p
	r.mu.Unlock()
	return nil
}

// ArmAll arms every ';'-separated term in spec (the GRAPHCT_FAILPOINTS
// format). An error on any term leaves earlier terms armed.
func (r *Registry) ArmAll(spec string) error {
	for _, term := range strings.Split(spec, ";") {
		if strings.TrimSpace(term) == "" {
			continue
		}
		if err := r.Arm(term); err != nil {
			return err
		}
	}
	return nil
}

// Disarm removes the arm on name, reporting whether one existed.
func (r *Registry) Disarm(name string) bool {
	r.mu.Lock()
	_, ok := r.points[name]
	delete(r.points, name)
	r.mu.Unlock()
	return ok
}

// DisarmAll removes every arm.
func (r *Registry) DisarmAll() {
	r.mu.Lock()
	r.points = make(map[string]*point)
	r.mu.Unlock()
}

// List returns the armed points sorted by name.
func (r *Registry) List() []Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Status, 0, len(r.points))
	for name, p := range r.points {
		spec := p.action.String()
		switch p.action {
		case ActionDelay:
			spec += "(" + p.delay.String() + ")"
		default:
			spec += "(" + p.msg + ")"
		}
		if p.budget >= 0 {
			spec += "*" + strconv.FormatInt(p.budget, 10)
		}
		if p.prob < 100 {
			spec += "%" + strconv.FormatFloat(p.prob, 'g', -1, 64)
		}
		out = append(out, Status{
			Name: name, Spec: spec, Budget: p.budget,
			Probability: p.prob, Evals: p.evals, Fires: p.fires,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Eval is the compiled-in hook: it fires the arm on name if one exists,
// its budget is not exhausted, and the probability roll passes. An
// error-action arm returns an *Error (wrapping ErrInjected); a delay arm
// sleeps and returns nil; a panic arm panics with a PanicValue. A
// disarmed or unknown name costs one map lookup.
func (r *Registry) Eval(name string) error {
	r.mu.Lock()
	p, ok := r.points[name]
	if !ok {
		r.mu.Unlock()
		return nil
	}
	p.evals++
	if p.budget == 0 || (p.prob < 100 && r.rng.Float64()*100 >= p.prob) {
		r.mu.Unlock()
		return nil
	}
	if p.budget > 0 {
		p.budget--
	}
	p.fires++
	action, msg, delay := p.action, p.msg, p.delay
	r.mu.Unlock()

	switch action {
	case ActionDelay:
		time.Sleep(delay)
		return nil
	case ActionPanic:
		panic(PanicValue{Point: name, Msg: msg})
	default:
		return &Error{Point: name, Msg: msg}
	}
}

// Eval fires name's arm on the Default registry; see Registry.Eval.
func Eval(name string) error { return Default.Eval(name) }
