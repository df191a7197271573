package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/url"
	"strconv"

	"graphct/internal/bc"
	"graphct/internal/core"
	"graphct/internal/failpoint"
	"graphct/internal/sssp"
	"graphct/internal/stats"
)

// kernelRun executes one kernel over a graph entry; the canonical param
// string doubles as the cache-key suffix.
type kernelRun func(ctx context.Context) (any, error)

// parseKernel validates a kernel request and returns its canonical
// parameter string plus a closure that runs it. Validation happens here,
// before the request touches the cache or pool, so malformed requests are
// rejected with 400 without consuming serving-path resources.
func (s *Server) parseKernel(kernel string, e *GraphEntry, q url.Values) (string, kernelRun, error) {
	g := e.Graph
	tk := func() *core.Toolkit { return core.New(g, core.WithSeed(s.cfg.Seed)) }
	switch kernel {
	case "components":
		return "", func(ctx context.Context) (any, error) {
			census := tk().ComponentCensus()
			type comp struct {
				Rank int   `json:"rank"`
				Size int64 `json:"size"`
			}
			top := make([]comp, 0, 20)
			for i, c := range census {
				if i >= 20 {
					break
				}
				top = append(top, comp{Rank: i + 1, Size: c.Size})
			}
			return map[string]any{"count": len(census), "largest": top}, nil
		}, nil
	case "stats":
		return "", func(ctx context.Context) (any, error) {
			ds := tk().DegreeStats()
			alpha, used := stats.PowerLawAlpha(g, 4)
			return map[string]any{
				"vertices": g.NumVertices(), "edges": g.NumEdges(),
				"degree_mean": ds.Mean, "degree_variance": ds.Variance, "degree_max": ds.Max,
				"power_law_alpha": alpha, "power_law_fit_vertices": used,
			}, nil
		}, nil
	case "degrees":
		return "", func(ctx context.Context) (any, error) {
			ds := tk().DegreeStats()
			return ds, nil
		}, nil
	case "clustering":
		return "", func(ctx context.Context) (any, error) {
			return map[string]any{"global_clustering": tk().GlobalClustering()}, nil
		}, nil
	case "diameter":
		return "", func(ctx context.Context) (any, error) {
			d, err := tk().DiameterCtx(ctx)
			if err != nil {
				return nil, err
			}
			return d, nil
		}, nil
	case "kcores":
		k, err := intParam(q, "k", 1)
		if err != nil || k < 0 || k > math.MaxInt32 {
			return "", nil, fmt.Errorf("bad k %q", q.Get("k"))
		}
		return fmt.Sprintf("k=%d", k), func(ctx context.Context) (any, error) {
			// The reply is the k-core's size only, read from the epoch's
			// profile: the first kcores request on the entry builds it.
			p, built := e.kcoreProfile()
			if built {
				s.metrics.KCoreProfiles.Add(1)
			}
			vertices, edges := p.At(k)
			return map[string]any{"k": k, "vertices": vertices, "edges": edges}, nil
		}, nil
	case "kcentrality":
		k, err := intParam(q, "k", 0)
		if err != nil || k < 0 || k > bc.MaxK {
			return "", nil, fmt.Errorf("bad k %q (supported range 0..%d)", q.Get("k"), bc.MaxK)
		}
		samples, err := intParam(q, "samples", 256)
		if err != nil {
			return "", nil, fmt.Errorf("bad samples %q", q.Get("samples"))
		}
		top, err := intParam(q, "top", 10)
		if err != nil || top < 1 {
			return "", nil, fmt.Errorf("bad top %q", q.Get("top"))
		}
		if q.Get("epsilon") != "" || q.Get("delta") != "" {
			// Adaptive (ε,δ)-guaranteed mode: ?epsilon= selects it, ?delta=
			// rides along (defaulting like the kernel). The guarantee covers
			// classic betweenness only, so k must stay 0; samples is the
			// fixed-k knob and is ignored — reject it so callers don't
			// believe it did something.
			eps, err := floatParam(q, "epsilon", 0)
			if err != nil || eps <= 0 || eps >= 1 {
				return "", nil, fmt.Errorf("bad epsilon %q (need 0 < epsilon < 1)", q.Get("epsilon"))
			}
			delta, err := floatParam(q, "delta", bc.DefaultDelta)
			if err != nil || delta <= 0 || delta >= 1 {
				return "", nil, fmt.Errorf("bad delta %q (need 0 < delta < 1)", q.Get("delta"))
			}
			if k != 0 {
				return "", nil, fmt.Errorf("epsilon requires k=0 (adaptive mode is classic betweenness; got k=%d)", k)
			}
			if q.Get("samples") != "" {
				return "", nil, fmt.Errorf("samples and epsilon are mutually exclusive (the adaptive estimator sizes its own sample count)")
			}
			// %g canonicalizes numerically equal spellings ("0.05", ".05",
			// "5e-2") to one cache key per (epoch, ε, δ, top).
			params := fmt.Sprintf("delta=%g&epsilon=%g&k=0&top=%d", delta, eps, top)
			return params, func(ctx context.Context) (any, error) {
				res, err := core.New(e.Undirected(), core.WithSeed(s.cfg.Seed)).ApproxCentralityCtx(ctx, eps, delta, 0)
				if err != nil {
					return nil, err
				}
				return map[string]any{"k": 0, "top": topScored(e, &res.Result, top), "guarantee": res.Guarantee}, nil
			}, nil
		}
		return fmt.Sprintf("k=%d&samples=%d&top=%d", k, samples, top), func(ctx context.Context) (any, error) {
			// Centrality treats the graph as undirected; resolving the
			// entry's memoized view here keeps concurrent requests on a
			// directed graph from each paying (or racing to share) the
			// symmetrization inside the kernel.
			res, err := core.New(e.Undirected(), core.WithSeed(s.cfg.Seed)).KCentralityCtx(ctx, k, samples)
			if err != nil {
				return nil, err
			}
			return map[string]any{"k": k, "sources": len(res.Sources), "top": topScored(e, res, top)}, nil
		}, nil
	case "bfs":
		src, err := vertexParam(q, "src", g.NumVertices())
		if err != nil {
			return "", nil, err
		}
		depth, err := intParam(q, "depth", -1)
		if err != nil {
			return "", nil, fmt.Errorf("bad depth %q", q.Get("depth"))
		}
		return fmt.Sprintf("depth=%d&src=%d", depth, src), func(ctx context.Context) (any, error) {
			// src is the client's id; the kernel runs on internal labels.
			res := tk().BFSSummary(e.ToInternal(src), depth)
			return map[string]any{"src": src, "reached": res.Reached, "depth": res.Depth}, nil
		}, nil
	case "sssp":
		src, err := vertexParam(q, "src", g.NumVertices())
		if err != nil {
			return "", nil, err
		}
		return fmt.Sprintf("src=%d", src), func(ctx context.Context) (any, error) {
			res, err := tk().SSSPCtx(ctx, e.ToInternal(src))
			if err != nil {
				return nil, err
			}
			reached, maxDist := 0, int64(0)
			for _, d := range res.Dist {
				if d != sssp.Inf {
					reached++
					if d > maxDist {
						maxDist = d
					}
				}
			}
			return map[string]any{"src": src, "reached": reached, "max_distance": maxDist}, nil
		}, nil
	default:
		return "", nil, errUnknownKernel
	}
}

var errUnknownKernel = errors.New("unknown kernel")

// scored is one row of a centrality ranking.
type scored struct {
	Vertex int32   `json:"vertex"`
	Score  float64 `json:"score"`
}

// topScored ranks res's top vertices, translated to client-visible ids: a
// reorder-relabeled graph must never leak internal labels.
func topScored(e *GraphEntry, res *bc.Result, top int) []scored {
	ranked := make([]scored, 0, top)
	for _, v := range res.TopK(top) {
		ranked = append(ranked, scored{Vertex: e.ToExternal(v), Score: res.Scores[v]})
	}
	return ranked
}

func intParam(q url.Values, name string, def int) (int, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	return strconv.Atoi(v)
}

func floatParam(q url.Values, name string, def float64) (float64, error) {
	v := q.Get(name)
	if v == "" {
		return def, nil
	}
	return strconv.ParseFloat(v, 64)
}

func vertexParam(q url.Values, name string, n int) (int32, error) {
	v, err := intParam(q, name, 0)
	if err != nil || v < 0 || v >= n {
		return 0, fmt.Errorf("bad vertex %q (graph has %d vertices)", q.Get(name), n)
	}
	return int32(v), nil
}

// errKernelPanic marks a kernel execution that panicked and was isolated
// by the per-kernel recover; it maps to HTTP 500 instead of a dead daemon.
var errKernelPanic = errors.New("kernel panicked")

// runKernel executes one kernel of the given cost class with panic
// isolation: a panicking kernel (organic or injected via the kernel.exec
// or kernel.exec.expensive failpoint) is converted into an error on this
// request alone, counted in kernel_panics, and the daemon keeps serving.
func (s *Server) runKernel(ctx context.Context, class string, run kernelRun) (res any, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.KernelPanics.Add(1)
			err = fmt.Errorf("%w: %v", errKernelPanic, r)
		}
	}()
	if err := failpoint.Eval(failpoint.KernelExec); err != nil {
		return nil, err
	}
	if class == ClassExpensive {
		if err := failpoint.Eval(failpoint.ExpensiveExec); err != nil {
			return nil, err
		}
	}
	return run(ctx)
}
