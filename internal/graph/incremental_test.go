package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// dynAdj is a toy dynamic adjacency for exercising the builder directly.
type dynAdj []map[int32]struct{}

func (d dynAdj) deg() []int64 {
	out := make([]int64, len(d))
	for v := range d {
		out[v] = int64(len(d[v]))
	}
	return out
}

func (d dynAdj) fill(v int32, dst []int32) {
	i := 0
	for w := range d[v] {
		dst[i] = w
		i++
	}
	slices.Sort(dst) // IncrementalCSR takes rows in ascending order
}

func (d dynAdj) add(u, v int32) {
	d[u][v] = struct{}{}
	d[v][u] = struct{}{}
}

func newDynAdj(n int) dynAdj {
	d := make(dynAdj, n)
	for i := range d {
		d[i] = make(map[int32]struct{})
	}
	return d
}

func TestIncrementalCSRFullBuild(t *testing.T) {
	d := newDynAdj(4)
	d.add(0, 1)
	d.add(1, 2)
	g, err := IncrementalCSR(nil, 4, d.deg(), nil, d.fill)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 || g.Directed() {
		t.Fatalf("edges %d directed %v", g.NumEdges(), g.Directed())
	}
}

func TestIncrementalCSRReusesCleanRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 64
	d := newDynAdj(n)
	for i := 0; i < 200; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v {
			d.add(u, v)
		}
	}
	prev, err := IncrementalCSR(nil, n, d.deg(), nil, d.fill)
	if err != nil {
		t.Fatal(err)
	}

	// Touch a few vertices, mark exactly those dirty.
	dirty := make([]bool, n)
	touch := func(u, v int32) { d.add(u, v); dirty[u], dirty[v] = true, true }
	touch(0, 63)
	touch(5, 6)
	next, err := IncrementalCSR(prev, n, d.deg(), dirty, d.fill)
	if err != nil {
		t.Fatal(err)
	}
	if err := next.Validate(); err != nil {
		t.Fatal(err)
	}
	// The incremental result must equal a from-scratch build...
	full, err := IncrementalCSR(nil, n, d.deg(), nil, d.fill)
	if err != nil {
		t.Fatal(err)
	}
	for v := int32(0); v < n; v++ {
		a, b := next.Neighbors(v), full.Neighbors(v)
		if len(a) != len(b) {
			t.Fatalf("degree(%d) %d != %d", v, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row %d differs", v)
			}
		}
	}
	// ...and the previous snapshot must be untouched (readers may still
	// hold it).
	if err := prev.Validate(); err != nil {
		t.Fatal(err)
	}
	if prev.HasEdge(0, 63) && full.Degree(0) == prev.Degree(0) {
		t.Fatal("previous snapshot mutated")
	}
}

func TestIncrementalCSRErrors(t *testing.T) {
	d := newDynAdj(3)
	d.add(0, 1)
	prev, err := IncrementalCSR(nil, 3, d.deg(), nil, d.fill)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := IncrementalCSR(nil, -1, nil, nil, d.fill); err == nil {
		t.Fatal("negative n accepted")
	}
	if _, err := IncrementalCSR(nil, 3, []int64{1}, nil, d.fill); err == nil {
		t.Fatal("short degrees accepted")
	}
	if _, err := IncrementalCSR(nil, 3, []int64{-1, 0, 0}, nil, d.fill); err == nil {
		t.Fatal("negative degree accepted")
	}
	// A clean vertex whose degree changed is a caller bookkeeping bug.
	d.add(1, 2)
	dirty := []bool{false, false, true} // vertex 1 changed but not marked
	if _, err := IncrementalCSR(prev, 3, d.deg(), dirty, d.fill); err == nil {
		t.Fatal("clean-vertex degree change accepted")
	}
}

// IncrementalCSR sorts nothing: a fill that breaks the ascending-order
// contract yields a graph Validate rejects.
func TestIncrementalCSRUnsortedFillFailsValidate(t *testing.T) {
	d := newDynAdj(4)
	d.add(0, 1)
	d.add(0, 2)
	d.add(0, 3)
	descending := func(v int32, dst []int32) {
		d.fill(v, dst)
		slices.Reverse(dst)
	}
	g, err := IncrementalCSR(nil, 4, d.deg(), nil, descending)
	if err != nil {
		t.Fatal(err)
	}
	if g.Validate() == nil {
		t.Fatal("Validate accepted a row filled in descending order")
	}
	if sorted, _ := IncrementalCSR(nil, 4, d.deg(), nil, d.fill); sorted.Validate() != nil {
		t.Fatal("ascending fill rejected")
	}
}
