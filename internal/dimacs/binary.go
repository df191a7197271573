package dimacs

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"graphct/internal/graph"
)

// Binary CSR format ("save graph ... comp1.bin" in the paper's script):
//
//	magic   [4]byte "GCTB"
//	version uint32  (1)
//	flags   uint32  (bit0 directed, bit1 weighted)
//	n       int64   vertices
//	arcs    int64   stored arcs
//	rowPtr  [n+1]int64
//	adj     [arcs]int32
//	weights [arcs]int32 (when bit1 set)
//
// All fields little-endian.

var binaryMagic = [4]byte{'G', 'C', 'T', 'B'}

const binaryVersion = 1

// binaryHeaderLen is the length of the fields before rowPtr.
const binaryHeaderLen = 4 + 4 + 4 + 8 + 8

// WriteBinary serializes g to w in the binary CSR format, in one pass:
// fields are appended little-endian to a buffer of at most 1 MiB that is
// written out whenever it fills. A w that can Grow (bytes.Buffer,
// strings.Builder) is first grown by the image's exact size, so encoding
// into memory allocates the image once.
func WriteBinary(w io.Writer, g *graph.Graph) error {
	var flags uint32
	if g.Directed() {
		flags |= 1
	}
	if g.Weighted() {
		flags |= 2
	}
	rowPtr, adj, weights := g.RowPtr(), g.AdjArray(), g.WeightArray()
	size := binaryHeaderLen + 8*len(rowPtr) + 4*(len(adj)+len(weights))
	if gw, ok := w.(interface{ Grow(int) }); ok {
		gw.Grow(size)
	}
	le := binary.LittleEndian
	buf := make([]byte, 0, min(size, 1<<20))
	buf = append(buf, binaryMagic[:]...)
	buf = le.AppendUint32(buf, binaryVersion)
	buf = le.AppendUint32(buf, flags)
	buf = le.AppendUint64(buf, uint64(g.NumVertices()))
	buf = le.AppendUint64(buf, uint64(g.NumArcs()))
	flush := func() error {
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}
	for _, x := range rowPtr {
		if len(buf)+8 > cap(buf) {
			if err := flush(); err != nil {
				return err
			}
		}
		buf = le.AppendUint64(buf, uint64(x))
	}
	for _, arr := range [2][]int32{adj, weights} {
		for _, x := range arr {
			if len(buf)+4 > cap(buf) {
				if err := flush(); err != nil {
					return err
				}
			}
			buf = le.AppendUint32(buf, uint32(x))
		}
	}
	return flush()
}

// ReadBinary deserializes a graph written by WriteBinary, validating the
// CSR invariants before returning it.
func ReadBinary(r io.Reader) (*graph.Graph, error) {
	// A reader that can say how many bytes it holds (bytes.Reader,
	// strings.Reader, bytes.Buffer) lets the header's sizes be checked
	// against them, and the arrays be allocated once at their final size.
	avail := int64(-1)
	if l, ok := r.(interface{ Len() int }); ok {
		avail = int64(l.Len())
	}
	br := bufio.NewReaderSize(r, 1<<20)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("dimacs: binary header: %w", err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("dimacs: bad magic %q", magic[:])
	}
	var version, flags uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("dimacs: unsupported binary version %d", version)
	}
	if err := binary.Read(br, binary.LittleEndian, &flags); err != nil {
		return nil, err
	}
	var n, arcs int64
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &arcs); err != nil {
		return nil, err
	}
	if n < 0 || arcs < 0 {
		return nil, fmt.Errorf("dimacs: negative sizes n=%d arcs=%d", n, arcs)
	}
	const maxReasonable = int64(1) << 40
	if n > maxReasonable || arcs > maxReasonable {
		return nil, fmt.Errorf("dimacs: implausible sizes n=%d arcs=%d", n, arcs)
	}
	payload := 8*(n+1) + 4*arcs
	if flags&2 != 0 {
		payload += 4 * arcs
	}
	if avail >= 0 && binaryHeaderLen+payload > avail {
		return nil, fmt.Errorf("dimacs: header declares %d payload bytes, input holds %d: %w",
			payload, avail-binaryHeaderLen, io.ErrUnexpectedEOF)
	}
	// Otherwise the arrays grow as their bytes arrive, read in bounded
	// chunks, so a corrupt header claiming a huge graph fails at the first
	// truncated read instead of attempting one enormous allocation.
	exact := avail >= 0
	rowPtr, err := readInt64s(br, n+1, exact)
	if err != nil {
		return nil, fmt.Errorf("dimacs: rowPtr: %w", err)
	}
	adj, err := readInt32s(br, arcs, exact)
	if err != nil {
		return nil, fmt.Errorf("dimacs: adjacency: %w", err)
	}
	var weights []int32
	if flags&2 != 0 {
		weights, err = readInt32s(br, arcs, exact)
		if err != nil {
			return nil, fmt.Errorf("dimacs: weights: %w", err)
		}
	}
	return graph.FromCSR(rowPtr, adj, weights, flags&1 != 0)
}

const readChunk = 1 << 18 // elements per chunked read

// readInt64s decodes n little-endian int64s straight into the returned
// slice, allocated at its final size when exact.
func readInt64s(r io.Reader, n int64, exact bool) ([]int64, error) {
	c := min(n, readChunk)
	if exact {
		c = n
	}
	out := make([]int64, 0, c)
	raw := make([]byte, 8*min(n, readChunk))
	for int64(len(out)) < n {
		b := raw[:8*min(n-int64(len(out)), readChunk)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < len(b); i += 8 {
			out = append(out, int64(binary.LittleEndian.Uint64(b[i:])))
		}
	}
	return out, nil
}

// readInt32s decodes n little-endian int32s straight into the returned
// slice, allocated at its final size when exact.
func readInt32s(r io.Reader, n int64, exact bool) ([]int32, error) {
	c := min(n, readChunk)
	if exact {
		c = n
	}
	out := make([]int32, 0, c)
	raw := make([]byte, 4*min(n, readChunk))
	for int64(len(out)) < n {
		b := raw[:4*min(n-int64(len(out)), readChunk)]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		for i := 0; i < len(b); i += 4 {
			out = append(out, int32(binary.LittleEndian.Uint32(b[i:])))
		}
	}
	return out, nil
}

// SaveBinary writes g to the named file.
func SaveBinary(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadBinary reads a graph from the named file.
func LoadBinary(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBinary(f)
}
