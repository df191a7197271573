package dimacs

import (
	"bytes"
	"fmt"
	"os"

	"graphct/internal/graph"
	"graphct/internal/par"
)

// Edge-list ("SNAP") format support: one "u v" pair per line with
// 0-based integer ids, '#' comment lines. This is how large public
// social graphs — including the Kwak et al. Twitter follower graph the
// paper benchmarks — are distributed.

// EdgeListOptions controls edge-list ingest.
type EdgeListOptions struct {
	// Directed keeps arcs as written; default symmetrizes.
	Directed bool
	// NumVertices fixes the vertex count; <= 0 sizes the graph to the
	// largest id seen.
	NumVertices int
	// MaxVertices rejects inputs referencing vertex ids at or beyond the
	// limit, guarding against hostile lines demanding enormous
	// allocations. <= 0 means unlimited (trusted input).
	MaxVertices int
}

// ParseEdgeListFile reads the edge-list file at path.
func ParseEdgeListFile(path string, opt EdgeListOptions) (*graph.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("edgelist: %w", err)
	}
	return ParseEdgeListBytes(data, opt)
}

// ParseEdgeListBytes parses an in-memory edge list in parallel.
func ParseEdgeListBytes(data []byte, opt EdgeListOptions) (*graph.Graph, error) {
	chunks := splitLines(data, 4*par.Workers())
	type partial struct {
		edges []graph.Edge
		max   int32
		err   error
	}
	parts := make([]partial, len(chunks))
	par.For(len(chunks), func(i int) {
		parts[i].edges, parts[i].max, parts[i].err = parseEdgeChunk(chunks[i])
	})
	max := int32(-1)
	for i := range parts {
		if parts[i].err != nil {
			return nil, parts[i].err
		}
		if parts[i].max > max {
			max = parts[i].max
		}
	}
	n := opt.NumVertices
	if n <= 0 {
		n = int(max) + 1
	}
	if opt.MaxVertices > 0 && n > opt.MaxVertices {
		return nil, fmt.Errorf("edgelist: %d vertices exceeds limit %d", n, opt.MaxVertices)
	}
	edges := concat(len(parts), func(i int) []graph.Edge { return parts[i].edges })
	return graph.FromEdges(n, edges, graph.Options{Directed: opt.Directed})
}

func parseEdgeChunk(chunk []byte) ([]graph.Edge, int32, error) {
	// As in parseChunk: one edge per newline at most, none shorter than "0 1\n".
	edges := make([]graph.Edge, 0, min(bytes.Count(chunk, []byte{'\n'}), len(chunk)/4)+1)
	max := int32(-1)
	for len(chunk) > 0 {
		line := chunk
		if idx := bytes.IndexByte(chunk, '\n'); idx >= 0 {
			line = chunk[:idx]
			chunk = chunk[idx+1:]
		} else {
			chunk = nil
		}
		fields, nf := splitFields(line, 2)
		if nf == 0 || fields[0][0] == '#' {
			continue
		}
		if nf < 2 {
			return nil, 0, fmt.Errorf("edgelist: malformed line %q", line)
		}
		u, ok := parseInt(fields[0], 32)
		if !ok || u < 0 {
			return nil, 0, fmt.Errorf("edgelist: bad source in %q", line)
		}
		v, ok := parseInt(fields[1], 32)
		if !ok || v < 0 {
			return nil, 0, fmt.Errorf("edgelist: bad target in %q", line)
		}
		if int32(u) > max {
			max = int32(u)
		}
		if int32(v) > max {
			max = int32(v)
		}
		edges = append(edges, graph.Edge{U: int32(u), V: int32(v)})
	}
	return edges, max, nil
}
