package dimacs

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"graphct/internal/graph"
)

// FuzzDimacsParse hardens the DIMACS parser: arbitrary input must either
// parse into a graph passing Validate or return an error — never panic.
// Beyond the f.Add seeds, a committed corpus lives under
// testdata/fuzz/FuzzDimacsParse; CI runs a short -fuzz smoke over it.
func FuzzDimacsParse(f *testing.F) {
	f.Add([]byte(sample))
	f.Add([]byte("p edge 2 1\ne 1 2 1"))
	f.Add([]byte("c only a comment"))
	f.Add([]byte("p sp 3 2\na 1 2 9\na 3 1 0\n"))
	f.Add([]byte("p edge 0 0\n"))
	f.Add([]byte("e 1 2 1\np edge 2 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, opt := range []ParseOptions{{MaxVertices: 1 << 20}, {Directed: true, MaxVertices: 1 << 20}, {KeepWeights: true, MaxVertices: 1 << 20}} {
			g, err := ParseBytes(data, opt)
			if err != nil {
				continue
			}
			if verr := g.Validate(); verr != nil {
				t.Fatalf("accepted graph fails validation: %v (input %q)", verr, data)
			}
		}
	})
}

// FuzzParseEdgeListBytes does the same for the SNAP edge-list parser.
func FuzzParseEdgeListBytes(f *testing.F) {
	f.Add([]byte("0 1\n1 2\n"))
	f.Add([]byte("# comment\n5 5\n"))
	f.Add([]byte(""))
	f.Add([]byte("0 1 extra columns ignored?"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseEdgeListBytes(data, EdgeListOptions{MaxVertices: 1 << 20})
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted graph fails validation: %v (input %q)", verr, data)
		}
	})
}

// FuzzReadBinary hardens the binary loader against corrupt files.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	g, _ := ParseBytes([]byte(sample), ParseOptions{KeepWeights: true})
	_ = WriteBinary(&buf, g)
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("GCTB"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := g.Validate(); verr != nil {
			t.Fatalf("accepted binary fails validation: %v", verr)
		}
	})
}

// FuzzChunkParsersMatchOracle holds the in-place field scanners to the
// retired bytes.Fields + strconv parsers: the same edges, and the same
// error text byte for byte, on any input — signs, overflow, non-ASCII
// white space and invalid UTF-8 included.
func FuzzChunkParsersMatchOracle(f *testing.F) {
	f.Add([]byte(sample))
	f.Add([]byte("a 1 2 3\ne\t2\v3\f4\r\na +3 -1\n"))
	f.Add([]byte("a 1 2 5\na 9223372036854775807 1\na 1 2 -9223372036854775808\n"))
	f.Add([]byte("a 1 2 9223372036854775808\narc 4 5\ne 1\xc2\x85 2\n\xff 1 2\n"))
	f.Add([]byte("0 1\n# c\n2147483647 2147483648\n-0 +7 junk\n 3 4\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, n := range []int{0, 5, 1 << 20} {
			want, werr := oracleParseChunk(data, n)
			_, wedges, err := parseChunk(data, n, true)
			edges, _, perr := parseChunk(data, n, false)
			if fmt.Sprint(err) != fmt.Sprint(werr) || fmt.Sprint(perr) != fmt.Sprint(werr) {
				t.Fatalf("n %d: error %v / %v, oracle %v", n, err, perr, werr)
			}
			if len(wedges) != len(want) || len(edges) != len(want) {
				t.Fatalf("n %d: %d / %d edges, oracle %d", n, len(wedges), len(edges), len(want))
			}
			for i, e := range want {
				if wedges[i] != e || edges[i] != (graph.Edge{U: e.U, V: e.V}) {
					t.Fatalf("n %d: edge %d = %v / %v, oracle %v", n, i, wedges[i], edges[i], e)
				}
			}
		}
		want, wmax, werr := oracleParseEdgeChunk(data)
		got, max, err := parseEdgeChunk(data)
		if fmt.Sprint(err) != fmt.Sprint(werr) || max != wmax && err == nil || !slices.Equal(got, want) && err == nil {
			t.Fatalf("edge list: %v %d %v, oracle %v %d %v", got, max, err, want, wmax, werr)
		}
	})
}
