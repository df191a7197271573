package dimacs

// The line parsers this package shipped before they scanned fields in
// place, kept verbatim (renamed) as the differential oracle for
// FuzzChunkParsersMatchOracle: edges and every error text must agree.

import (
	"bytes"
	"fmt"
	"strconv"

	"graphct/internal/graph"
)

// oracleParseChunk is the retired parseChunk. It extracts the edges in one
// chunk. Problem and comment lines are skipped (the header may sit inside
// any chunk).
func oracleParseChunk(chunk []byte, n int) ([]graph.WeightedEdge, error) {
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

// oracleParseEdgeChunk is the retired parseEdgeChunk.
func oracleParseEdgeChunk(chunk []byte) ([]graph.Edge, int32, error) {
	var edges []graph.Edge
	max := int32(-1)
	for len(chunk) > 0 {
		line := chunk
		if idx := bytes.IndexByte(chunk, '\n'); idx >= 0 {
			line = chunk[:idx]
			chunk = chunk[idx+1:]
		} else {
			chunk = nil
		}
		fields := bytes.Fields(line)
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		if len(fields) < 2 {
			return nil, 0, fmt.Errorf("edgelist: malformed line %q", line)
		}
		u, err := strconv.ParseInt(string(fields[0]), 10, 32)
		if err != nil || u < 0 {
			return nil, 0, fmt.Errorf("edgelist: bad source in %q", line)
		}
		v, err := strconv.ParseInt(string(fields[1]), 10, 32)
		if err != nil || v < 0 {
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
