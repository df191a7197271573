package dimacs

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"graphct/internal/gen"
	"graphct/internal/graph"
)

// failWriter fails after n bytes, exercising the writers' error paths.
type failWriter struct {
	n int
}

var errDiskFull = errors.New("synthetic disk full")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errDiskFull
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errDiskFull
	}
	w.n -= len(p)
	return len(p), nil
}

// failReader fails after its prefix is consumed.
type failReader struct {
	data []byte
}

func (r *failReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, errDiskFull
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

func TestWriteBinaryFailurePropagates(t *testing.T) {
	g := gen.ErdosRenyi(50, 150, 1)
	// Fail at several offsets to hit header, rowPtr and adjacency writes.
	for _, budget := range []int{0, 2, 10, 100, 600} {
		w := &failWriter{n: budget}
		if err := WriteBinary(w, g); !errors.Is(err, errDiskFull) {
			t.Fatalf("budget %d: err = %v, want disk full", budget, err)
		}
	}
}

func TestWriteBinaryWeightedFailure(t *testing.T) {
	g, _ := graph.FromWeightedEdges(30, wedges(29), graph.Options{})
	for _, budget := range []int{300, 400} {
		if err := WriteBinary(&failWriter{n: budget}, g); !errors.Is(err, errDiskFull) {
			t.Fatalf("budget %d: err = %v", budget, err)
		}
	}
}

func wedges(n int) []graph.WeightedEdge {
	out := make([]graph.WeightedEdge, n)
	for i := range out {
		out[i] = graph.WeightedEdge{U: int32(i), V: int32(i + 1), W: int32(i)}
	}
	return out
}

func TestWriteDIMACSFailure(t *testing.T) {
	g := gen.ErdosRenyi(40, 120, 2)
	if err := Write(&failWriter{n: 5}, g); !errors.Is(err, errDiskFull) {
		t.Fatalf("err = %v", err)
	}
	if err := Write(&failWriter{n: 60}, g); !errors.Is(err, errDiskFull) {
		t.Fatalf("mid-stream err = %v", err)
	}
}

func TestParseReaderFailure(t *testing.T) {
	if _, err := Parse(&failReader{data: []byte("p edge 2 1\n")}, ParseOptions{}); !errors.Is(err, errDiskFull) {
		t.Fatalf("dimacs err = %v", err)
	}
}

func TestReadBinaryTruncatedPayloads(t *testing.T) {
	g := gen.ErdosRenyi(60, 180, 3)
	var full strings.Builder
	if err := WriteBinary(&writerAdapter{&full}, g); err != nil {
		t.Fatal(err)
	}
	data := full.String()
	// Every truncation point must error, never panic or return a bogus
	// graph.
	for _, frac := range []float64{0.1, 0.3, 0.5, 0.9, 0.99} {
		cut := int(frac * float64(len(data)))
		if _, err := ReadBinary(strings.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := ReadBinary(strings.NewReader(data)); err != nil {
		t.Fatalf("full data rejected: %v", err)
	}
}

type writerAdapter struct{ b *strings.Builder }

func (w *writerAdapter) Write(p []byte) (int, error) { return w.b.Write(p) }

func TestSaveBinaryBadPath(t *testing.T) {
	g := gen.Ring(5)
	if err := SaveBinary(filepath.Join(t.TempDir(), "no", "such", "dir", "g.bin"), g); err == nil {
		t.Fatal("bad path accepted")
	}
}

func TestReadBinaryImplausibleSizes(t *testing.T) {
	// Header claiming 2^50 vertices must be rejected before allocation.
	var b strings.Builder
	b.WriteString("GCTB")
	le := func(v uint64, n int) {
		for i := 0; i < n; i++ {
			b.WriteByte(byte(v >> (8 * i)))
		}
	}
	le(1, 4)     // version
	le(0, 4)     // flags
	le(1<<50, 8) // n
	le(16, 8)    // arcs
	if _, err := ReadBinary(strings.NewReader(b.String())); err == nil {
		t.Fatal("implausible size accepted")
	}
}
