// Package dimacs reads and writes graph files: the DIMACS text format the
// paper's scripting example ingests ("read dimacs patents.txt") and
// GraphCT's binary CSR format for saved graphs and extracted components.
//
// Mirroring the paper's ingest path, the text parser loads the whole file
// into memory and parses it in parallel: the byte buffer is split at line
// boundaries into per-worker chunks, each parsed independently, and the
// edge lists concatenated.
package dimacs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"

	"graphct/internal/graph"
	"graphct/internal/par"
)

// ParseOptions controls DIMACS ingest.
type ParseOptions struct {
	// Directed keeps arcs as written; default symmetrizes, as GraphCT's
	// analyses do.
	Directed bool
	// KeepWeights retains the per-edge integer weights when present.
	KeepWeights bool
	// MaxVertices rejects files whose problem line declares more
	// vertices, guarding against hostile headers demanding enormous
	// allocations. <= 0 means unlimited (trusted input).
	MaxVertices int
}

// Parse reads a DIMACS graph from r into a CSR graph.
//
// Recognized lines: "c ..." comments, one "p <tag> <n> <m>" problem line,
// and edge lines "a <u> <v> [w]" or "e <u> <v> [w]" with 1-based vertex
// ids. Blank lines are ignored. Edges referencing vertices beyond n are an
// error, as is a missing problem line.
func Parse(r io.Reader, opt ParseOptions) (*graph.Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dimacs: read: %w", err)
	}
	return ParseBytes(data, opt)
}

// ParseFile parses the DIMACS file at path.
func ParseFile(path string, opt ParseOptions) (*graph.Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("dimacs: %w", err)
	}
	return ParseBytes(data, opt)
}

// ParseBytes parses an in-memory DIMACS file in parallel.
func ParseBytes(data []byte, opt ParseOptions) (*graph.Graph, error) {
	n, _, err := header(data)
	if err != nil {
		return nil, err
	}
	if opt.MaxVertices > 0 && n > opt.MaxVertices {
		return nil, fmt.Errorf("dimacs: %d vertices exceeds limit %d", n, opt.MaxVertices)
	}
	chunks := splitLines(data, 4*par.Workers())
	type partial struct {
		edges []graph.WeightedEdge
		err   error
	}
	parts := make([]partial, len(chunks))
	par.For(len(chunks), func(i int) {
		parts[i].edges, parts[i].err = parseChunk(chunks[i], n)
	})
	var total int
	for i := range parts {
		if parts[i].err != nil {
			return nil, parts[i].err
		}
		total += len(parts[i].edges)
	}
	edges := make([]graph.WeightedEdge, 0, total)
	for i := range parts {
		edges = append(edges, parts[i].edges...)
	}
	gopt := graph.Options{Directed: opt.Directed}
	if opt.KeepWeights {
		return graph.FromWeightedEdges(n, edges, gopt)
	}
	plain := make([]graph.Edge, len(edges))
	for i, e := range edges {
		plain[i] = graph.Edge{U: e.U, V: e.V}
	}
	return graph.FromEdges(n, plain, gopt)
}

// header locates and parses the problem line.
func header(data []byte) (n int, m int64, err error) {
	for len(data) > 0 {
		line := data
		if idx := bytes.IndexByte(data, '\n'); idx >= 0 {
			line = data[:idx]
			data = data[idx+1:]
		} else {
			data = nil
		}
		fields := bytes.Fields(line)
		if len(fields) == 0 || fields[0][0] == 'c' {
			continue
		}
		if fields[0][0] == 'p' {
			if len(fields) < 4 {
				return 0, 0, fmt.Errorf("dimacs: malformed problem line %q", line)
			}
			nv, err := strconv.Atoi(string(fields[len(fields)-2]))
			if err != nil || nv < 0 {
				return 0, 0, fmt.Errorf("dimacs: bad vertex count in %q", line)
			}
			ne, err := strconv.ParseInt(string(fields[len(fields)-1]), 10, 64)
			if err != nil || ne < 0 {
				return 0, 0, fmt.Errorf("dimacs: bad edge count in %q", line)
			}
			return nv, ne, nil
		}
		if fields[0][0] == 'a' || fields[0][0] == 'e' {
			return 0, 0, fmt.Errorf("dimacs: edge line before problem line")
		}
	}
	return 0, 0, fmt.Errorf("dimacs: missing problem line")
}

// splitLines cuts data into at most parts chunks ending on line boundaries.
func splitLines(data []byte, parts int) [][]byte {
	if parts < 1 {
		parts = 1
	}
	var chunks [][]byte
	approx := len(data)/parts + 1
	for len(data) > 0 {
		end := approx
		if end >= len(data) {
			chunks = append(chunks, data)
			break
		}
		for end < len(data) && data[end] != '\n' {
			end++
		}
		if end < len(data) {
			end++ // include the newline
		}
		chunks = append(chunks, data[:end])
		data = data[end:]
	}
	return chunks
}

// parseChunk extracts the edges in one chunk. Problem and comment lines are
// skipped (the header may sit inside any chunk).
func parseChunk(chunk []byte, n int) ([]graph.WeightedEdge, error) {
	var edges []graph.WeightedEdge
	for len(chunk) > 0 {
		line := chunk
		if idx := bytes.IndexByte(chunk, '\n'); idx >= 0 {
			line = chunk[:idx]
			chunk = chunk[idx+1:]
		} else {
			chunk = nil
		}
		fields := bytes.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0][0] {
		case 'c', 'p':
			continue
		case 'a', 'e':
			if len(fields) < 3 {
				return nil, fmt.Errorf("dimacs: malformed edge line %q", line)
			}
			u, err := strconv.Atoi(string(fields[1]))
			if err != nil {
				return nil, fmt.Errorf("dimacs: bad source in %q", line)
			}
			v, err := strconv.Atoi(string(fields[2]))
			if err != nil {
				return nil, fmt.Errorf("dimacs: bad target in %q", line)
			}
			w := 1
			if len(fields) >= 4 {
				w, err = strconv.Atoi(string(fields[3]))
				if err != nil {
					return nil, fmt.Errorf("dimacs: bad weight in %q", line)
				}
			}
			if u < 1 || u > n || v < 1 || v > n {
				return nil, fmt.Errorf("dimacs: edge (%d,%d) outside 1..%d", u, v, n)
			}
			edges = append(edges, graph.WeightedEdge{U: int32(u - 1), V: int32(v - 1), W: int32(w)})
		default:
			return nil, fmt.Errorf("dimacs: unrecognized line %q", line)
		}
	}
	return edges, nil
}

// Write emits g in DIMACS format with 1-based ids. Undirected edges are
// written once (u <= v).
func Write(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	tag := "edge"
	kind := byte('e')
	if g.Directed() {
		tag = "sp"
		kind = 'a'
	}
	if _, err := fmt.Fprintf(bw, "c written by graphct\np %s %d %d\n", tag, g.NumVertices(), g.NumEdges()); err != nil {
		return err
	}
	// Lines are assembled in one reused buffer: formatting each edge
	// through fmt costs more than everything else the writer does.
	var buf []int32
	line := []byte{kind, ' '}
	for v := 0; v < g.NumVertices(); v++ {
		nbr := g.NeighborsInto(&buf, int32(v))
		wts := g.Weights(int32(v))
		for i, u := range nbr {
			if !g.Directed() && u < int32(v) {
				continue
			}
			weight := int32(1)
			if wts != nil {
				weight = wts[i]
			}
			line = strconv.AppendInt(line[:2], int64(v)+1, 10)
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(u)+1, 10)
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(weight), 10)
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
