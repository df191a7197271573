package bc

import (
	"context"
	"fmt"

	"graphct/internal/graph"
)

// DirectedCentrality computes betweenness centrality over directed
// shortest paths — the paper's "directed model connecting only @foo to
// @bar could model directed flow and is of future interest". Shortest
// paths follow arc direction; the backward sweep scans the transpose graph
// for predecessors. Undirected graphs already encode both arc directions
// and go to Centrality. Only classic betweenness (k = 0) is supported;
// sampling and concurrency behave as in Centrality.
func DirectedCentrality(g *graph.Graph, opt Options) (*Result, error) {
	if opt.K != 0 {
		return nil, fmt.Errorf("bc: directed k-betweenness not supported (k = %d)", opt.K)
	}
	if !g.Directed() {
		return Centrality(g, opt), nil
	}
	rev := g.Reverse()
	sources, sweeps, scale := drawSources(g, opt)
	scores, err := runSources(context.Background(), g.NumVertices(), sweeps, scale, opt.Concurrency, func() sourceKernel {
		ws := newWorkspace(g, 0)
		return func(s int32, sink scoreSink) { directedSource(g, rev, s, ws, sink) }
	})
	if err != nil {
		return nil, err
	}
	return &Result{Scores: scores, Sources: sources}, nil
}

// directedSource is Brandes over directed arcs: the forward sweep follows
// out-arcs; the dependency sweep finds predecessors by scanning the
// transpose adjacency.
func directedSource(g, rev *graph.Graph, s int32, ws *workspace, sink scoreSink) {
	defer ws.reset()
	ws.forwardSweep(g, s)
	dist, sigma, delta := ws.dist, ws.sigma, ws.delta
	for i := len(ws.order) - 1; i > 0; i-- {
		w := ws.order[i]
		coef := (1 + delta[w]) / sigma[w]
		dw := dist[w]
		for _, v := range rev.Neighbors(w) {
			if dist[v] == dw-1 {
				delta[v] += sigma[v] * coef
			}
		}
		sink.add(w, delta[w])
	}
}
