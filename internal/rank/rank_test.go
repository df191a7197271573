package rank

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// sortTop is Top as it was before it became a bounded heap: a full sort,
// kept verbatim (renamed) as the oracle the heap must match on every
// NaN-free input. sort.Slice leaves NaN order unspecified, so NaN cases
// go through oracleTop.
func sortTop(scores []float64, k int) []int32 {
	n := len(scores)
	if k < 0 {
		k = 0
	}
	if k > n {
		k = n
	}
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(a, b int) bool {
		if scores[idx[a]] != scores[idx[b]] {
			return scores[idx[a]] > scores[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx[:k]
}

// oracleTop is Top's contract spelled out: sortTop over the numbers, then
// the NaNs in ascending index, cut at k.
func oracleTop(scores []float64, k int) []int32 {
	var nums []float64
	var ids, nans []int32
	for i, s := range scores {
		if math.IsNaN(s) {
			nans = append(nans, int32(i))
			continue
		}
		nums = append(nums, s)
		ids = append(ids, int32(i))
	}
	var out []int32
	for _, j := range sortTop(nums, len(nums)) {
		out = append(out, ids[j])
	}
	out = append(out, nans...)
	return out[:max(0, min(k, len(out)))]
}

// topKs are the k values the pins try: out of range both ways, the
// boundaries and the middle.
func topKs(n int) []int {
	return []int{-2, 0, 1, n / 2, n, n + 5}
}

// TestTopMatchesSort holds the heap to the sort it replaced on random
// scores with heavy ties (at most eight distinct values, signed zeros
// among them), for float64 and int64 scores alike.
func TestTopMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(200)
		scores := make([]float64, n)
		ints := make([]int64, n)
		for i := range scores {
			ints[i] = int64(rng.Intn(8) - 4)
			scores[i] = float64(ints[i])
			if scores[i] == 0 && rng.Intn(2) == 0 {
				scores[i] = math.Copysign(0, -1)
			}
		}
		for _, k := range topKs(n) {
			want := sortTop(scores, k)
			if got := Top(scores, k); !slices.Equal(got, want) {
				t.Fatalf("n=%d k=%d: Top = %v, sort = %v", n, k, got, want)
			}
			if got := Top(ints, k); !slices.Equal(got, want) {
				t.Fatalf("n=%d k=%d: int64 Top = %v, sort = %v", n, k, got, want)
			}
		}
	}
}

// TestTopRanksNaNLast pins NaN below every number, -Inf included: a NaN
// never displaces a number, and NaNs fill what is left by ascending index.
func TestTopRanksNaNLast(t *testing.T) {
	nan := math.NaN()
	scores := []float64{nan, 1, nan, math.Inf(-1), 3, nan, -2}
	if got, want := Top(scores, 2), []int32{4, 1}; !slices.Equal(got, want) {
		t.Fatalf("Top(2) = %v, want %v", got, want)
	}
	if got, want := Top(scores, 6), []int32{4, 1, 6, 3, 0, 2}; !slices.Equal(got, want) {
		t.Fatalf("Top(6) = %v, want %v", got, want)
	}
	for _, k := range topKs(len(scores)) {
		if got, want := Top(scores, k), oracleTop(scores, k); !slices.Equal(got, want) {
			t.Fatalf("Top(%d) = %v, oracle %v", k, got, want)
		}
	}
}

// FuzzTopMatchesSort holds Top to oracleTop on fuzzed scores: each byte
// is one score, 0xff a NaN and anything else one of eight values, so ties
// are the rule. The int64 instance must give the NaN-free answer too.
func FuzzTopMatchesSort(f *testing.F) {
	f.Add([]byte{3, 0xff, 3, 1, 0xff, 7, 1}, 4)
	f.Fuzz(func(t *testing.T, data []byte, k int) {
		scores := make([]float64, len(data))
		ints := make([]int64, 0, len(data))
		for i, b := range data {
			if b == 0xff {
				scores[i] = math.NaN()
				continue
			}
			scores[i] = float64(int(b%8) - 4)
			ints = append(ints, int64(b%8)-4)
		}
		if got, want := Top(scores, k), oracleTop(scores, k); !slices.Equal(got, want) {
			t.Fatalf("Top(%d) = %v, oracle %v", k, got, want)
		}
		nums := make([]float64, len(ints))
		for i, v := range ints {
			nums[i] = float64(v)
		}
		if got, want := Top(ints, k), sortTop(nums, k); !slices.Equal(got, want) {
			t.Fatalf("int64 Top(%d) = %v, sort %v", k, got, want)
		}
	})
}

func TestTop(t *testing.T) {
	scores := []float64{3, 9, 1, 9, 5}
	top := Top(scores, 3)
	if len(top) != 3 || top[0] != 1 || top[1] != 3 || top[2] != 4 {
		t.Fatalf("Top = %v", top)
	}
	if got := Top(scores, 0); len(got) != 0 {
		t.Fatalf("Top(0) = %v", got)
	}
	if got := Top(scores, -2); len(got) != 0 {
		t.Fatalf("Top(-2) = %v", got)
	}
	if got := Top(scores, 99); len(got) != 5 {
		t.Fatalf("Top(99) = %v", got)
	}
}

func TestTopFraction(t *testing.T) {
	scores := make([]float64, 100)
	for i := range scores {
		scores[i] = float64(i)
	}
	top := TopFraction(scores, 0.05)
	if len(top) != 5 || top[0] != 99 {
		t.Fatalf("TopFraction = %v", top)
	}
	if got := TopFraction(scores, 0.001); len(got) != 1 {
		t.Fatalf("ceil behavior: %v", got)
	}
	if got := TopFraction(scores, -1); len(got) != 0 {
		t.Fatal("negative frac should clamp to 0")
	}
	if got := TopFraction(scores, 2); len(got) != 100 {
		t.Fatal("frac > 1 should clamp to 1")
	}
}

func TestOverlap(t *testing.T) {
	if got := Overlap([]int32{1, 2, 3}, []int32{2, 3, 4}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("overlap = %v", got)
	}
	if Overlap(nil, nil) != 1 {
		t.Fatal("empty sets should overlap fully")
	}
	if Overlap([]int32{1}, []int32{2}) != 0 {
		t.Fatal("disjoint overlap != 0")
	}
	if Overlap([]int32{1, 2}, []int32{1, 2}) != 1 {
		t.Fatal("identical overlap != 1")
	}
	// Unequal lengths use the larger as denominator.
	if got := Overlap([]int32{1}, []int32{1, 2}); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("uneven overlap = %v", got)
	}
}

func TestNormalizedHamming(t *testing.T) {
	if got := NormalizedHamming([]int32{1, 2}, []int32{1, 2}); got != 0 {
		t.Fatalf("identical hamming = %v", got)
	}
	if got := NormalizedHamming([]int32{1, 2}, []int32{3, 4}); got != 1 {
		t.Fatalf("disjoint hamming = %v", got)
	}
	if got := NormalizedHamming([]int32{1, 2, 3}, []int32{2, 3, 4}); math.Abs(got-2.0/6) > 1e-12 {
		t.Fatalf("hamming = %v", got)
	}
	if NormalizedHamming(nil, nil) != 0 {
		t.Fatal("empty hamming != 0")
	}
}

func TestHammingComplementsOverlap(t *testing.T) {
	f := func(av, bv []uint8) bool {
		// Build equal-size sets from the generated bytes.
		k := len(av)
		if len(bv) < k {
			k = len(bv)
		}
		if k == 0 {
			return true
		}
		seenA := map[int32]bool{}
		seenB := map[int32]bool{}
		var a, b []int32
		for i := 0; i < k; i++ {
			if !seenA[int32(av[i])] {
				a = append(a, int32(av[i]))
				seenA[int32(av[i])] = true
			}
			if !seenB[int32(bv[i])] {
				b = append(b, int32(bv[i]))
				seenB[int32(bv[i])] = true
			}
		}
		if len(a) != len(b) {
			return true // only the equal-size identity is claimed
		}
		return math.Abs(NormalizedHamming(a, b)-(1-Overlap(a, b))) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTopAccuracy(t *testing.T) {
	exact := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	// Approximation swaps ranks 0 and 9.
	approx := []float64{1, 9, 8, 7, 6, 5, 4, 3, 2, 10}
	if got := TopAccuracy(exact, approx, 0.2); got != 0.5 {
		t.Fatalf("accuracy = %v, want 0.5", got)
	}
	if got := TopAccuracy(exact, exact, 0.2); got != 1 {
		t.Fatalf("self accuracy = %v", got)
	}
}

func TestSpearmanPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{10, 20, 30, 40, 50}
	if got := Spearman(x, y); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spearman = %v, want 1", got)
	}
	rev := []float64{50, 40, 30, 20, 10}
	if got := Spearman(x, rev); math.Abs(got+1) > 1e-12 {
		t.Fatalf("spearman = %v, want -1", got)
	}
}

func TestSpearmanDegenerate(t *testing.T) {
	if Spearman([]float64{1}, []float64{2}) != 0 {
		t.Fatal("short vectors should give 0")
	}
	if Spearman([]float64{1, 2}, []float64{3}) != 0 {
		t.Fatal("mismatched lengths should give 0")
	}
	if Spearman([]float64{5, 5, 5}, []float64{1, 2, 3}) != 0 {
		t.Fatal("constant vector should give 0")
	}
}

func TestSpearmanTies(t *testing.T) {
	// x has a tie; correlation should still be high and within [-1, 1].
	x := []float64{1, 2, 2, 4}
	y := []float64{1, 2, 3, 4}
	got := Spearman(x, y)
	if got <= 0.8 || got > 1 {
		t.Fatalf("tied spearman = %v", got)
	}
}

func TestRanksAveraging(t *testing.T) {
	r := ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}

// Property: Overlap is symmetric and within [0,1]; NormalizedHamming is a
// metric-like distance within [0,1].
func TestPropertyMetricBounds(t *testing.T) {
	f := func(av, bv []uint8) bool {
		toSet := func(xs []uint8) []int32 {
			seen := map[int32]bool{}
			var out []int32
			for _, x := range xs {
				if !seen[int32(x)] {
					out = append(out, int32(x))
					seen[int32(x)] = true
				}
			}
			return out
		}
		a, b := toSet(av), toSet(bv)
		o1, o2 := Overlap(a, b), Overlap(b, a)
		h1, h2 := NormalizedHamming(a, b), NormalizedHamming(b, a)
		return o1 == o2 && h1 == h2 && o1 >= 0 && o1 <= 1 && h1 >= 0 && h1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
