package dimacs

// The line parsers this package shipped before they scanned fields in
// place, kept verbatim (renamed) as the differential oracle for
// FuzzChunkParsersMatchOracle: edges and every error text must agree. The
// binary encoder before it wrote in one pass is kept the same way for
// TestWriteBinaryMatchesOracle: the bytes must not change.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
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

// oracleWriteBinary is the retired WriteBinary. It serializes g to w in the
// binary CSR format.
func oracleWriteBinary(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	var flags uint32
	if g.Directed() {
		flags |= 1
	}
	if g.Weighted() {
		flags |= 2
	}
	for _, v := range []uint32{binaryVersion, flags} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(g.NumVertices())); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.NumArcs()); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.RowPtr()); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, g.AdjArray()); err != nil {
		return err
	}
	if g.Weighted() {
		if err := binary.Write(bw, binary.LittleEndian, g.WeightArray()); err != nil {
			return err
		}
	}
	return bw.Flush()
}
