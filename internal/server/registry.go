package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"graphct/internal/dimacs"
	"graphct/internal/graph"
	"graphct/internal/kcore"
)

// epochCounter hands out globally unique graph epochs. Cache keys embed
// the epoch, so replacing a graph under a name implicitly invalidates
// every cached result for the old graph without touching the cache.
var epochCounter atomic.Uint64

// advanceEpochCounter raises the counter to at least min. Recovery calls
// it with the highest epoch found in the durable store before publishing
// anything, so post-restart epochs stay strictly above every persisted
// one — point-in-time keys and "latest snapshot" ordering never collide
// across restarts.
func advanceEpochCounter(min uint64) {
	for {
		cur := epochCounter.Load()
		if cur >= min || epochCounter.CompareAndSwap(cur, min) {
			return
		}
	}
}

// GraphEntry is one named graph in the registry. Entries are immutable
// once published: a reload under the same name installs a new entry with
// a fresh epoch. For live (ingest-enabled) graphs, Graph is the epoch's
// materialized snapshot and Live carries the mutable stream shared by
// successive entries under the name; each snapshot materialization
// publishes a new entry, so readers that resolved an older entry keep a
// consistent view for the whole request.
type GraphEntry struct {
	Name  string
	Epoch uint64
	Graph *graph.Graph
	Live  *Live // nil for static graphs

	// Orig maps the graph's internal vertex ids back to the ids clients
	// know (Orig[internal] = external); nil means identity. Load-time
	// reordering relabels vertices for cache locality, and the API
	// boundary translates both directions so clients never see internal
	// labels: inbound vertex params go through ToInternal, per-vertex
	// results go through ToExternal.
	Orig []int32
	// perm is the eager inverse of Orig (perm[external] = internal),
	// built once at publish time for O(1) inbound translation.
	perm []int32

	// kcores is the epoch's k-core profile, nil until the first kcores
	// request builds it (see kcoreProfile).
	kcores struct {
		sync.Mutex
		p *kcore.Profile
	}
}

// ToExternal translates an internal vertex id to the client-visible id.
func (e *GraphEntry) ToExternal(v int32) int32 {
	if e.Orig == nil {
		return v
	}
	return e.Orig[v]
}

// ToInternal translates a client-supplied vertex id to the internal label.
// The caller has already range-checked v against the vertex count.
func (e *GraphEntry) ToInternal(v int32) int32 {
	if e.perm == nil {
		return v
	}
	return e.perm[v]
}

// Undirected returns the entry's memoized undirected view. The memo lives
// on the graph itself, so it is scoped to this entry's epoch exactly like
// the result cache: however many concurrent centrality requests hit a
// directed graph, it is symmetrized once per epoch, and reloading a graph
// under the same name (new entry, new epoch, new *Graph) naturally drops
// the stale view along with the stale cache keys.
func (e *GraphEntry) Undirected() *graph.Graph {
	return e.Graph.Undirected()
}

// kcoreProfile returns the entry's k-core profile, and whether this call
// built it. The first call builds it in one O(n + m) pass and keeps only
// the profile, O(degeneracy) memory, not the core numbers; concurrent
// callers wait for that build. The memo lives on the entry, never on the
// graph: registering the same *graph.Graph again publishes a new entry, and
// its first kcores request peels the graph again, as a reload's would. A
// build that panics stores nothing, so the panic reaches the request's
// isolation and the next request builds afresh.
func (e *GraphEntry) kcoreProfile() (kcore.Profile, bool) {
	e.kcores.Lock()
	defer e.kcores.Unlock()
	if e.kcores.p != nil {
		return *e.kcores.p, false
	}
	p := kcore.NewProfile(e.Graph, kcore.Decompose(e.Graph))
	e.kcores.p = &p
	return p, true
}

// Registry maps names to in-memory CSR graphs. All methods are safe for
// concurrent use; lookups are cheap (RWMutex read path) because every
// kernel request resolves its graph here.
type Registry struct {
	mu sync.RWMutex
	m  map[string]*GraphEntry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]*GraphEntry)}
}

// Add publishes g under name, replacing any previous graph and bumping
// the epoch (which orphans stale cache entries). Publishing a static
// graph over a live name drops the live stream.
func (r *Registry) Add(name string, g *graph.Graph) *GraphEntry {
	return r.AddWithOrig(name, g, nil)
}

// AddWithOrig publishes g with an internal→external id mapping (nil for
// identity). Derived graphs (extractions) use it to compose their id
// mapping with their parent's.
func (r *Registry) AddWithOrig(name string, g *graph.Graph, orig []int32) *GraphEntry {
	return r.addEntry(name, g, nil, orig)
}

func (r *Registry) addEntry(name string, g *graph.Graph, live *Live, orig []int32) *GraphEntry {
	e := &GraphEntry{Name: name, Epoch: epochCounter.Add(1), Graph: g, Live: live, Orig: orig}
	// Inbound translation needs the inverse, which only exists when Orig
	// permutes the entry's own id space (a reordered load). A derived
	// entry maps into its parent's larger space: clients address it by its
	// dense ids and Orig translates outputs only.
	if isPerm(orig) {
		e.perm = graph.InversePerm(orig)
	}
	r.mu.Lock()
	r.m[name] = e
	r.mu.Unlock()
	return e
}

// addEntryAt publishes g under name at a caller-chosen epoch instead of
// the next counter value. The follower tailer uses it to pin replicated
// entries to the leader's durable epochs, so "epoch E of graph g" names
// the same bits on every member of a shard. The global counter is raised
// past the pinned value first, so locally published epochs (follower-own
// graphs, a later promotion to leader) never collide with replicated ones.
func (r *Registry) addEntryAt(name string, g *graph.Graph, live *Live, epoch uint64) *GraphEntry {
	advanceEpochCounter(epoch)
	e := &GraphEntry{Name: name, Epoch: epoch, Graph: g, Live: live}
	r.mu.Lock()
	r.m[name] = e
	r.mu.Unlock()
	return e
}

// isPerm reports whether orig is a permutation of [0, len(orig)).
func isPerm(orig []int32) bool {
	if orig == nil {
		return false
	}
	seen := make([]bool, len(orig))
	for _, v := range orig {
		if v < 0 || int(v) >= len(orig) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Load reads a graph file in the given format ("dimacs", "edgelist" or
// "binary"), relabels it degree-descending for cache locality (DESIGN
// §10.1), and publishes it under name with the id translation, so the
// relabeling stays invisible at the API. Live graphs are never relabeled:
// each epoch is assembled by IncrementalCSR from rows in the ids clients
// ingest, so they stay in ingest order.
func (r *Registry) Load(name, format, path string, directed bool) (*GraphEntry, error) {
	var g *graph.Graph
	var err error
	switch format {
	case "dimacs":
		g, err = dimacs.ParseFile(path, dimacs.ParseOptions{Directed: directed, KeepWeights: true})
	case "edgelist":
		g, err = dimacs.ParseEdgeListFile(path, dimacs.EdgeListOptions{Directed: directed})
	case "binary":
		g, err = dimacs.LoadBinary(path)
	default:
		return nil, fmt.Errorf("unknown graph format %q (want dimacs, edgelist or binary)", format)
	}
	if err != nil {
		return nil, err
	}
	g, inv, err := graph.Layout{Reorder: graph.ReorderDegree}.Apply(g)
	if err != nil {
		return nil, err
	}
	return r.AddWithOrig(name, g, inv), nil
}

// Get resolves a name; ok is false when no graph is registered under it.
func (r *Registry) Get(name string) (*GraphEntry, bool) {
	r.mu.RLock()
	e, ok := r.m[name]
	r.mu.RUnlock()
	return e, ok
}

// Remove drops the graph registered under name, reporting whether one
// existed. Cached results for it age out of the LRU naturally.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	_, ok := r.m[name]
	delete(r.m, name)
	r.mu.Unlock()
	return ok
}

// List returns the registered entries sorted by name.
func (r *Registry) List() []*GraphEntry {
	r.mu.RLock()
	out := make([]*GraphEntry, 0, len(r.m))
	for _, e := range r.m {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
