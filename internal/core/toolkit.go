// Package core assembles GraphCT's kernels behind one facade, the Toolkit:
// a current in-memory CSR graph, a load-time diameter estimate, a stack of
// saved graphs (the scripting interface's calculator-style memory), and
// one method per analysis kernel. Running many kernels against a single
// loaded graph — components, then extraction, then centrality — is the
// paper's core usage pattern, and the Toolkit keeps results composable by
// always operating on the current graph.
package core

import (
	"context"
	"fmt"

	"graphct/internal/bc"
	"graphct/internal/bfs"
	"graphct/internal/cc"
	"graphct/internal/cluster"
	"graphct/internal/dimacs"
	"graphct/internal/graph"
	"graphct/internal/kcore"
	"graphct/internal/sssp"
	"graphct/internal/stats"
)

// Toolkit holds the current graph and the saved-graph stack.
type Toolkit struct {
	g        *graph.Graph
	origIDs  []int32 // current graph's vertex ids in the loaded graph; nil = identity
	diam     stats.DiameterEstimate
	diamSet  bool
	stack    []frame
	seed     int64
	comps    *cc.Result // memoized components of the current graph
	diamSrc  int        // diameter sampling sources (paper default 256)
	diamMult int        // diameter multiplier (paper default 4)
}

type frame struct {
	g       *graph.Graph
	origIDs []int32
	diam    stats.DiameterEstimate
	diamSet bool
	comps   *cc.Result
}

// Option customizes a Toolkit.
type Option func(*Toolkit)

// WithSeed fixes the random seed used by sampling kernels.
func WithSeed(seed int64) Option { return func(t *Toolkit) { t.seed = seed } }

// WithDiameterSampling overrides the diameter estimator's source count and
// multiplier ("users ... may specify an alternate multiplier or number of
// samples").
func WithDiameterSampling(sources, multiplier int) Option {
	return func(t *Toolkit) {
		t.diamSrc = sources
		t.diamMult = multiplier
	}
}

// New wraps a graph in a Toolkit.
func New(g *graph.Graph, opts ...Option) *Toolkit {
	t := &Toolkit{g: g, seed: 1, diamSrc: 256, diamMult: 4}
	for _, o := range opts {
		o(t)
	}
	return t
}

// LoadDIMACS reads a DIMACS file into a new Toolkit. Edge weights are
// kept; path-counting kernels ignore them, the SSSP kernel uses them.
// Extraction, k-cores and reordering carry them along; the undirected
// projection and the reciprocal core drop them.
func LoadDIMACS(path string, directed bool, opts ...Option) (*Toolkit, error) {
	g, err := dimacs.ParseFile(path, dimacs.ParseOptions{Directed: directed, KeepWeights: true})
	if err != nil {
		return nil, err
	}
	return New(g, opts...), nil
}

// LoadEdgeList reads a SNAP-style edge-list file into a new Toolkit.
func LoadEdgeList(path string, directed bool, opts ...Option) (*Toolkit, error) {
	g, err := dimacs.ParseEdgeListFile(path, dimacs.EdgeListOptions{Directed: directed})
	if err != nil {
		return nil, err
	}
	return New(g, opts...), nil
}

// LoadBinary reads a binary CSR file into a new Toolkit.
func LoadBinary(path string, opts ...Option) (*Toolkit, error) {
	g, err := dimacs.LoadBinary(path)
	if err != nil {
		return nil, err
	}
	return New(g, opts...), nil
}

// Graph returns the current graph.
func (t *Toolkit) Graph() *graph.Graph { return t.g }

// OrigIDs maps current vertex ids back to the graph the Toolkit was
// created with; nil means the identity mapping.
func (t *Toolkit) OrigIDs() []int32 { return t.origIDs }

// OrigID resolves one current vertex id to the originally loaded graph.
func (t *Toolkit) OrigID(v int32) int32 {
	if t.origIDs == nil {
		return v
	}
	return t.origIDs[v]
}

// setGraph installs a derived graph, composing orig-id mappings and
// invalidating memoized results.
func (t *Toolkit) setGraph(g *graph.Graph, orig []int32) {
	if t.origIDs != nil && orig != nil {
		composed := make([]int32, len(orig))
		for i, v := range orig {
			composed[i] = t.origIDs[v]
		}
		orig = composed
	} else if orig == nil {
		orig = t.origIDs
	}
	t.g = g
	t.origIDs = orig
	t.diamSet = false
	t.comps = nil
}

// Reorder relabels the current graph's vertices for cache locality
// (graph.DegreePerm for ReorderDegree; ReorderNone is a no-op).
// The inverse permutation becomes the orig-id composition, so per-vertex
// output (kcentrality rankings, extractions) keeps reporting ids of the
// originally loaded graph — the relabeling is invisible outside kernel
// memory behavior.
func (t *Toolkit) Reorder(kind graph.ReorderKind) error {
	if kind == graph.ReorderNone {
		return nil
	}
	rg, inv, err := graph.Layout{Reorder: kind}.Apply(t.g)
	if err != nil {
		return err
	}
	t.setGraph(rg, inv)
	return nil
}

// Diameter returns the sampled diameter estimate, computing and caching it
// on first use — GraphCT estimates it after loading and stores it globally
// for queue sizing.
func (t *Toolkit) Diameter() stats.DiameterEstimate {
	if !t.diamSet {
		t.diam = stats.EstimateDiameter(t.g, t.diamSrc, t.diamMult, t.seed)
		t.diamSet = true
	}
	return t.diam
}

// DiameterCtx is Diameter with cooperative cancellation for long-running
// service requests; the estimate is cached only on success.
func (t *Toolkit) DiameterCtx(ctx context.Context) (stats.DiameterEstimate, error) {
	if t.diamSet {
		return t.diam, nil
	}
	d, err := stats.EstimateDiameterCtx(ctx, t.g, t.diamSrc, t.diamMult, t.seed)
	if err != nil {
		return stats.DiameterEstimate{}, err
	}
	t.diam = d
	t.diamSet = true
	return d, nil
}

// Save pushes the current graph onto the stack.
func (t *Toolkit) Save() {
	t.stack = append(t.stack, frame{g: t.g, origIDs: t.origIDs, diam: t.diam, diamSet: t.diamSet, comps: t.comps})
}

// Restore pops the most recently saved graph, making it current.
func (t *Toolkit) Restore() error {
	if len(t.stack) == 0 {
		return fmt.Errorf("core: restore with empty graph stack")
	}
	fr := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.g, t.origIDs, t.diam, t.diamSet, t.comps = fr.g, fr.origIDs, fr.diam, fr.diamSet, fr.comps
	return nil
}

// DegreeStats summarizes the degree distribution.
func (t *Toolkit) DegreeStats() stats.DegreeStats { return stats.Degrees(t.g) }

// Components labels connected components, memoizing per current graph.
func (t *Toolkit) Components() *cc.Result {
	if t.comps == nil {
		t.comps = cc.Components(t.g)
	}
	return t.comps
}

// ComponentCensus returns components by decreasing size.
func (t *Toolkit) ComponentCensus() []cc.Component { return t.Components().Census() }

// ExtractComponent replaces the current graph with its rank-th largest
// component (rank 1 = largest), the scripting interface's
// "extract component N".
func (t *Toolkit) ExtractComponent(rank int) error {
	census := t.ComponentCensus()
	if rank < 1 || rank > len(census) {
		return fmt.Errorf("core: component rank %d of %d", rank, len(census))
	}
	sub, orig := cc.Extract(t.g, t.Components(), rank)
	t.setGraph(sub, orig)
	return nil
}

// ReciprocalCore replaces the current graph with the undirected graph of
// mutual mention pairs — the paper's conversation filter.
func (t *Toolkit) ReciprocalCore() {
	t.setGraph(t.g.ReciprocalCore(), nil)
}

// ToUndirected replaces the current graph with its undirected projection.
func (t *Toolkit) ToUndirected() {
	t.setGraph(t.g.Undirected(), nil)
}

// DropIsolated removes zero-degree vertices from the current graph.
func (t *Toolkit) DropIsolated() {
	sub, orig := t.g.DropIsolated()
	t.setGraph(sub, orig)
}

// KCentrality estimates k-betweenness centrality with the given number of
// sampled sources (<= 0 for exact), the scripting interface's
// "kcentrality K SAMPLES".
func (t *Toolkit) KCentrality(k, samples int) *bc.Result {
	return bc.Centrality(t.g, bc.Options{K: k, Samples: samples, Seed: t.seed})
}

// KCentralityCtx is KCentrality with cooperative cancellation, checked
// between per-source computations.
func (t *Toolkit) KCentralityCtx(ctx context.Context, k, samples int) (*bc.Result, error) {
	return bc.CentralityCtx(ctx, t.g, bc.Options{K: k, Samples: samples, Seed: t.seed})
}

// ApproxCentrality computes adaptive approximate betweenness centrality
// with an (ε,δ) absolute-error guarantee, the scripting interface's
// "kcentrality 0 0 eps=E delta=D". topK > 0 relaxes the stopping rule to
// certify the top-k ranking only.
func (t *Toolkit) ApproxCentrality(eps, delta float64, topK int) *bc.ApproxResult {
	return bc.ApproxCentrality(t.g, bc.ApproxOptions{
		Epsilon: eps, Delta: delta, TopK: topK, Seed: t.seed,
	})
}

// ApproxCentralityCtx is ApproxCentrality with cooperative cancellation,
// checked between samples.
func (t *Toolkit) ApproxCentralityCtx(ctx context.Context, eps, delta float64, topK int) (*bc.ApproxResult, error) {
	return bc.ApproxCentralityCtx(ctx, t.g, bc.ApproxOptions{
		Epsilon: eps, Delta: delta, TopK: topK, Seed: t.seed,
	})
}

// BetweennessApprox computes sampled approximate betweenness centrality.
func (t *Toolkit) BetweennessApprox(samples int) *bc.Result {
	return bc.Approx(t.g, samples, t.seed)
}

// KCores replaces the current graph with its k-core.
func (t *Toolkit) KCores(k int32) {
	sub, orig := kcore.Extract(t.g, k)
	t.setGraph(sub, orig)
}

// CoreNumbers returns every vertex's core number.
func (t *Toolkit) CoreNumbers() []int32 { return kcore.Decompose(t.g) }

// ClusteringCoefficients returns per-vertex clustering coefficients.
func (t *Toolkit) ClusteringCoefficients() []float64 { return cluster.Coefficients(t.g) }

// GlobalClustering returns the graph transitivity.
func (t *Toolkit) GlobalClustering() float64 { return cluster.Global(t.g) }

// BFS marks a breadth-first search of bounded depth from a vertex
// (depth < 0 for unbounded).
func (t *Toolkit) BFS(src int32, depth int) *bfs.Result {
	return bfs.SearchBounded(t.g, src, depth)
}

// BFSSummary runs the same search as BFS for callers that report only how
// many vertices were reached and how deep: no levels, parents or order are
// materialised.
func (t *Toolkit) BFSSummary(src int32, depth int) bfs.Summary {
	return bfs.Summarize(t.g, src, depth)
}

// SSSP computes weighted single-source shortest paths from src via
// parallel delta-stepping (heuristic bucket width). Unweighted graphs get
// unit weights.
func (t *Toolkit) SSSP(src int32) (*sssp.Result, error) {
	return sssp.DeltaStepping(t.g, src, 0)
}

// SSSPCtx is SSSP with cooperative cancellation, checked between
// relaxation rounds.
func (t *Toolkit) SSSPCtx(ctx context.Context, src int32) (*sssp.Result, error) {
	return sssp.DeltaSteppingCtx(ctx, t.g, src, 0)
}

// SaveBinary writes the current graph to a binary CSR file.
func (t *Toolkit) SaveBinary(path string) error { return dimacs.SaveBinary(path, t.g) }
