package par

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRadixSortSmall(t *testing.T) {
	cases := [][]uint64{
		nil,
		{},
		{5},
		{2, 1},
		{3, 3, 3},
		{9, 1, 8, 2, 7, 3},
		{0, ^uint64(0), 1 << 63, 1},
	}
	for _, c := range cases {
		got := append([]uint64(nil), c...)
		RadixSortUint64(got, 64)
		want := append([]uint64(nil), c...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sort(%v) = %v, want %v", c, got, want)
			}
		}
	}
}

func TestRadixSortLargeMatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := make([]uint64, 200000)
	for i := range a {
		a[i] = rng.Uint64()
	}
	want := append([]uint64(nil), a...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	RadixSortUint64(a, 64)
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestRadixSortParallelPinned(t *testing.T) {
	old := maxProcs
	defer func() { maxProcs = old }()
	maxProcs = func() int { return 4 }
	rng := rand.New(rand.NewSource(9))
	a := make([]uint64, 100000)
	for i := range a {
		a[i] = rng.Uint64() >> uint(rng.Intn(60)) // skewed digits
	}
	want := append([]uint64(nil), a...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	RadixSortUint64(a, 64)
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("parallel mismatch at %d", i)
		}
	}
}

func TestPropertyRadixSorted(t *testing.T) {
	f := func(xs []uint64) bool {
		a := append([]uint64(nil), xs...)
		RadixSortUint64(a, 64)
		if len(a) != len(xs) {
			return false
		}
		for i := 1; i < len(a); i++ {
			if a[i-1] > a[i] {
				return false
			}
		}
		// Same multiset: compare against stdlib sort.
		want := append([]uint64(nil), xs...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if a[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// A width below 64 sorts the low bits only and keeps the bits above them —
// a payload — in input order among equal keys, at every worker count and
// on both sides of the serial cut-off.
func TestRadixSortWidthIsStable(t *testing.T) {
	old := maxProcs
	defer func() { maxProcs = old }()
	for _, procs := range []int{1, 2, 3, 4} {
		maxProcs = func() int { return procs }
		for _, n := range []int{100, 1 << 13} {
			for _, bits := range []int{1, 7, 12, 17, 32, 40} {
				rng := rand.New(rand.NewSource(int64(n + bits)))
				a := make([]uint64, n)
				for i := range a {
					a[i] = uint64(i)<<bits | rng.Uint64()&(1<<bits-1)
				}
				want := append([]uint64(nil), a...)
				key := func(x uint64) uint64 { return x & (1<<bits - 1) }
				sort.SliceStable(want, func(i, j int) bool { return key(want[i]) < key(want[j]) })
				RadixSortUint64(a, bits)
				for i := range want {
					if a[i] != want[i] {
						t.Fatalf("procs %d n %d bits %d: mismatch at %d", procs, n, bits, i)
					}
				}
			}
		}
	}
}

func BenchmarkRadixVsStdlib(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := make([]uint64, 1<<20)
	for i := range base {
		base[i] = rng.Uint64()
	}
	b.Run("radix", func(b *testing.B) {
		a := make([]uint64, len(base))
		for i := 0; i < b.N; i++ {
			copy(a, base)
			RadixSortUint64(a, 64)
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		a := make([]uint64, len(base))
		for i := 0; i < b.N; i++ {
			copy(a, base)
			sort.Slice(a, func(x, y int) bool { return a[x] < a[y] })
		}
	})
}
