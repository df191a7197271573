package graph

import (
	"graphct/internal/par"
)

// compactAdj stores the adjacency lists as one delta-varint byte stream
// (see varint.go): offs[v]..offs[v+1] delimit vertex v's encoded row. The
// element counts stay in the graph's rowPtr, so Degree and NumArcs are
// unchanged; only the neighbor ids themselves are compressed.
type compactAdj struct {
	offs []int64 // len n+1; byte offsets into data
	data []byte  // concatenated encoded rows plus compactPad tail bytes
}

// compactPad is the number of bytes appended after the last encoded row.
// The branchless decode loops always load the byte after the current one
// and mask it away for one-byte gaps; the pad keeps that load in bounds
// for a one-byte varint ending the stream.
const compactPad = 1

// Compacted reports whether the adjacency is stored delta-varint
// compressed. Kernels use it to pick their decoding hot loop; Neighbors
// still works on a compacted graph but allocates per call.
func (g *Graph) Compacted() bool { return g.compact != nil }

// Compact returns a graph identical to g whose adjacency is stored as
// delta-encoded varints — typically 2-4× smaller on R-MAT and reordered
// social graphs, where sorted rows have small gaps. The rowPtr (and the
// degree/arc bookkeeping it carries) is shared with g; only the neighbor
// storage changes, so every kernel produces bit-identical output on the
// compact graph (the equivalence tests pin this).
//
// Weighted graphs are returned unchanged: weights are accessed by CSR slot
// and would defeat the byte-offset indexing. Already-compact graphs are
// returned as is.
func (g *Graph) Compact() *Graph {
	if g.compact != nil || g.weights != nil {
		return g
	}
	n := g.NumVertices()
	// Sizing pass: exact encoded length per row, then a prefix sum, then a
	// parallel fill — the count → prefix → fill shape of filterRows.
	lens := make([]int64, n)
	par.For(n, func(v int) {
		l, err := adjacencyLen(g.adj[g.rowPtr[v]:g.rowPtr[v+1]])
		if err != nil {
			// Unreachable for a valid CSR graph: rows are sorted and ids
			// non-negative by construction (Validate enforces both).
			panic("graph: compact: " + err.Error())
		}
		lens[v] = int64(l)
	})
	offs := make([]int64, n+1)
	var sum int64
	for v := 0; v < n; v++ {
		offs[v] = sum
		sum += lens[v]
	}
	offs[n] = sum
	data := make([]byte, sum+compactPad)
	par.For(n, func(v int) {
		row := g.adj[g.rowPtr[v]:g.rowPtr[v+1]]
		// Append into the presized window; the sizing pass fixed its length.
		_, _ = AppendAdjacency(data[offs[v]:offs[v]:offs[v+1]], row)
	})
	return &Graph{
		rowPtr:   g.rowPtr,
		adj:      nil,
		directed: g.directed,
		compact:  &compactAdj{offs: offs, data: data},
	}
}

// Decompress returns g with its adjacency restored to the raw int32 CSR
// array (g itself when already raw).
func (g *Graph) Decompress() *Graph {
	if g.compact == nil {
		return g
	}
	return &Graph{
		rowPtr:   g.rowPtr,
		adj:      g.decompressAdj(),
		directed: g.directed,
	}
}

// decompressAdj materializes the full raw adjacency array of a compact
// graph. Serialization (AdjArray) uses it so on-disk formats stay raw CSR.
func (g *Graph) decompressAdj() []int32 {
	adj := make([]int32, g.rowPtr[g.NumVertices()])
	par.For(g.NumVertices(), func(v int) {
		g.appendRow(adj[g.rowPtr[v]:g.rowPtr[v]:g.rowPtr[v+1]], int32(v))
	})
	return adj
}

// appendRow decodes vertex v's compact row into dst (trusted fast path:
// the bytes were produced by AppendAdjacency, so no validation is needed).
// One- and two-byte gaps — the overwhelming majority on social graphs —
// decode through one branchless sequence: both bytes are loaded
// unconditionally (compactPad keeps the second load in bounds at the end
// of the stream) and the high bit of the first selects the width via a
// mask, so rows mixing one- and two-byte gaps pay no branch mispredicts.
func (g *Graph) appendRow(dst []int32, v int32) []int32 {
	c := g.compact
	data := c.data
	pos := int(c.offs[v])
	deg := int(g.rowPtr[v+1] - g.rowPtr[v])
	base := len(dst)
	if cap(dst) < base+deg {
		grown := make([]int32, base+deg)
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:base+deg]
	}
	out := dst[base:]
	prev := int32(0)
	for i := range out {
		b := uint32(data[pos])
		b2 := uint32(data[pos+1])
		if b&b2&0x80 != 0 { // ≥3-byte gap: rare slow path
			d, n := decodeUvarint32(data[pos:])
			prev += int32(d)
			pos += n
			out[i] = prev
			continue
		}
		two := b >> 7 // 0 or 1; -two is the all-ones mask iff two bytes
		prev += int32((b & 0x7f) | (b2&0x7f)<<7&-two)
		pos += int(1 + two)
		out[i] = prev
	}
	return dst
}

// NeighborsInto returns vertex v's adjacency row. For a raw graph it is
// the aliased CSR subslice — same cost as Neighbors, buf untouched. For a
// compact graph the row is decoded into *buf, which is grown as needed and
// reused across calls, so a kernel sweeping many rows decodes without
// allocating after the first row. The returned slice is only valid until
// the next call with the same buf.
func (g *Graph) NeighborsInto(buf *[]int32, v int32) []int32 {
	if g.compact == nil {
		return g.adj[g.rowPtr[v]:g.rowPtr[v+1]]
	}
	*buf = g.appendRow((*buf)[:0], v)
	return *buf
}

// NeighborIter is a zero-allocation cursor over one vertex's adjacency
// row, decoding delta-varints inline for compact graphs and walking the
// CSR slice for raw ones. It is the hot-sweep access path for kernels that
// cannot carry a decode buffer (fine-grained parallel loops where a shared
// buffer would race).
type NeighborIter struct {
	raw  []int32 // raw path; nil for compact graphs
	data []byte  // compact path: the row's encoded bytes
	pos  int     // cursor into raw or data
	rem  int     // neighbors left
	prev int32   // running delta sum
}

// NeighborIter returns a cursor over v's neighbors in ascending order.
func (g *Graph) NeighborIter(v int32) NeighborIter {
	deg := int(g.rowPtr[v+1] - g.rowPtr[v])
	if g.compact == nil {
		return NeighborIter{raw: g.adj[g.rowPtr[v]:g.rowPtr[v+1]], rem: deg}
	}
	c := g.compact
	// The slice runs one byte past the row so the branchless two-byte load
	// in Next stays in bounds (the overhang is the next row's first byte or
	// the stream pad, and is masked away for one-byte gaps).
	return NeighborIter{data: c.data[c.offs[v] : c.offs[v+1]+1], rem: deg}
}

// Next returns the next neighbor id; ok is false when the row is
// exhausted. Like appendRow, one- and two-byte gaps decode through one
// branchless width-masked sequence — the per-edge cost the hot sweeps pay.
func (it *NeighborIter) Next() (v int32, ok bool) {
	if it.rem == 0 {
		return 0, false
	}
	it.rem--
	if it.raw != nil {
		v = it.raw[it.pos]
		it.pos++
		return v, true
	}
	data, pos := it.data, it.pos
	b := uint32(data[pos])
	b2 := uint32(data[pos+1])
	if b&b2&0x80 != 0 { // ≥3-byte gap: rare slow path
		d, n := decodeUvarint32(data[pos:])
		it.prev += int32(d)
		it.pos = pos + n
		return it.prev, true
	}
	two := b >> 7
	it.prev += int32((b & 0x7f) | (b2&0x7f)<<7&-two)
	it.pos = pos + int(1+two)
	return it.prev, true
}
