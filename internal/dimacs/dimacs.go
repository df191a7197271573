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
	"unicode"
	"unicode/utf8"

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
		edges  []graph.Edge
		wedges []graph.WeightedEdge
		err    error
	}
	parts := make([]partial, len(chunks))
	par.For(len(chunks), func(i int) {
		parts[i].edges, parts[i].wedges, parts[i].err = parseChunk(chunks[i], n, opt.KeepWeights)
	})
	for i := range parts {
		if parts[i].err != nil {
			return nil, parts[i].err
		}
	}
	gopt := graph.Options{Directed: opt.Directed}
	if opt.KeepWeights {
		return graph.FromWeightedEdges(n, concat(len(parts), func(i int) []graph.WeightedEdge { return parts[i].wedges }), gopt)
	}
	return graph.FromEdges(n, concat(len(parts), func(i int) []graph.Edge { return parts[i].edges }), gopt)
}

// concat joins the k per-chunk slices part(i) into one, copying the
// chunks in parallel.
func concat[E any](k int, part func(i int) []E) []E {
	offs := make([]int, k+1)
	for i := 0; i < k; i++ {
		offs[i+1] = offs[i] + len(part(i))
	}
	out := make([]E, offs[k])
	par.For(k, func(i int) { copy(out[offs[i]:], part(i)) })
	return out
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

// parseChunk extracts the edges in one chunk: into wedges when
// keepWeights, else into edges (a weight column is still checked).
// Problem and comment lines are skipped (the header may sit inside any
// chunk). Fields are scanned and their digits read in place.
func parseChunk(chunk []byte, n int, keepWeights bool) (edges []graph.Edge, wedges []graph.WeightedEdge, err error) {
	// Room for every edge line: one per newline, and no line shorter than
	// "a 1 2\n" holds an edge, so blank lines cannot inflate it.
	if lines := min(bytes.Count(chunk, []byte{'\n'}), len(chunk)/6) + 1; keepWeights {
		wedges = make([]graph.WeightedEdge, 0, lines)
	} else {
		edges = make([]graph.Edge, 0, lines)
	}
	for len(chunk) > 0 {
		line := chunk
		if idx := bytes.IndexByte(chunk, '\n'); idx >= 0 {
			line = chunk[:idx]
			chunk = chunk[idx+1:]
		} else {
			chunk = nil
		}
		fields, nf := splitFields(line, 4)
		if nf == 0 {
			continue
		}
		switch fields[0][0] {
		case 'c', 'p':
			continue
		case 'a', 'e':
			if nf < 3 {
				return nil, nil, fmt.Errorf("dimacs: malformed edge line %q", line)
			}
			u, ok := parseInt(fields[1], strconv.IntSize)
			if !ok {
				return nil, nil, fmt.Errorf("dimacs: bad source in %q", line)
			}
			v, ok := parseInt(fields[2], strconv.IntSize)
			if !ok {
				return nil, nil, fmt.Errorf("dimacs: bad target in %q", line)
			}
			w := int64(1)
			if nf >= 4 {
				if w, ok = parseInt(fields[3], strconv.IntSize); !ok {
					return nil, nil, fmt.Errorf("dimacs: bad weight in %q", line)
				}
			}
			if u < 1 || u > int64(n) || v < 1 || v > int64(n) {
				return nil, nil, fmt.Errorf("dimacs: edge (%d,%d) outside 1..%d", u, v, n)
			}
			if keepWeights {
				wedges = append(wedges, graph.WeightedEdge{U: int32(u - 1), V: int32(v - 1), W: int32(w)})
			} else {
				edges = append(edges, graph.Edge{U: int32(u - 1), V: int32(v - 1)})
			}
		default:
			return nil, nil, fmt.Errorf("dimacs: unrecognized line %q", line)
		}
	}
	return edges, wedges, nil
}

// splitFields returns the first (up to) max whitespace-separated fields
// of line and how many there are, splitting exactly where bytes.Fields
// would — ASCII space, \t, \n, \v, \f, \r and, in non-ASCII text, every
// unicode.IsSpace rune — without allocating.
func splitFields(line []byte, max int) (fields [4][]byte, nf int) {
	for i := 0; nf < max; nf++ {
		i = skip(line, i, true)
		if i == len(line) {
			break
		}
		end := skip(line, i, false)
		fields[nf], i = line[i:end], end
	}
	return fields, nf
}

// skip advances from i over runes that are (space) or are not (!space)
// white space, returning the first index where that stops.
func skip(line []byte, i int, space bool) int {
	for i < len(line) {
		c, size := line[i], 1
		isSpace := c == ' ' || c-'\t' <= '\r'-'\t'
		if c >= utf8.RuneSelf {
			var r rune
			r, size = utf8.DecodeRune(line[i:])
			isSpace = unicode.IsSpace(r)
		}
		if isSpace != space {
			return i
		}
		i += size
	}
	return i
}

// parseInt is strconv.ParseInt(string(s), 10, bitSize) without the
// string: an optional sign and at least one decimal digit, in range. ok is
// false exactly where ParseInt returns an error.
func parseInt(s []byte, bitSize int) (v int64, ok bool) {
	neg := len(s) > 0 && s[0] == '-'
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if len(s) == 0 {
		return 0, false
	}
	limit := uint64(1) << (bitSize - 1) // |MinInt|; MaxInt is one less
	var u uint64
	for _, c := range s {
		if c < '0' || c > '9' || u > limit/10 {
			return 0, false
		}
		if u = u*10 + uint64(c-'0'); u > limit {
			return 0, false
		}
	}
	if neg {
		return -int64(u), true
	}
	return int64(u), u < limit
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
	line := []byte{kind, ' '}
	for v := 0; v < g.NumVertices(); v++ {
		nbr := g.Neighbors(int32(v))
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
