package par

import (
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	const n = 10000
	hits := make([]int32, n)
	For(n, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times, want 1", i, h)
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	called := false
	For(0, func(int) { called = true })
	For(-5, func(int) { called = true })
	if called {
		t.Fatal("body called for empty ranges")
	}
}

func TestForSingleIteration(t *testing.T) {
	var sum int64
	For(1, func(i int) { atomic.AddInt64(&sum, int64(i)+7) })
	if sum != 7 {
		t.Fatalf("sum = %d, want 7", sum)
	}
}

func TestForChunkedCoversRangeExactly(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 1000, 4096, 99999} {
		for _, chunk := range []int{1, 7, 64, 1024, 1 << 20} {
			var covered atomic.Int64
			ForChunked(n, chunk, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
				}
				covered.Add(int64(hi - lo))
			})
			if covered.Load() != int64(n) {
				t.Fatalf("n=%d chunk=%d covered %d iterations", n, chunk, covered.Load())
			}
		}
	}
}

func TestForChunkedDefaultChunk(t *testing.T) {
	var total atomic.Int64
	ForChunked(5000, 0, func(lo, hi int) { total.Add(int64(hi - lo)) })
	if total.Load() != 5000 {
		t.Fatalf("covered %d, want 5000", total.Load())
	}
}

func TestForEachWorkerRunsEachWorkerOnce(t *testing.T) {
	seen := make([]int32, Workers())
	ForEachWorker(func(w, workers int) {
		if workers != Workers() {
			t.Errorf("workers = %d, want %d", workers, Workers())
		}
		atomic.AddInt32(&seen[w], 1)
	})
	for w, c := range seen {
		if c != 1 {
			t.Fatalf("worker %d ran %d times", w, c)
		}
	}
}

func TestWorkersPinned(t *testing.T) {
	old := maxProcs
	defer func() { maxProcs = old }()
	maxProcs = func() int { return 3 }
	if Workers() != 3 {
		t.Fatalf("Workers() = %d, want 3", Workers())
	}
	maxProcs = func() int { return 0 }
	if Workers() != 1 {
		t.Fatalf("Workers() with 0 procs = %d, want 1", Workers())
	}
}

func TestForParallelWithPinnedWorkers(t *testing.T) {
	old := maxProcs
	defer func() { maxProcs = old }()
	maxProcs = func() int { return 4 }
	const n = 50000
	var sum atomic.Int64
	For(n, func(i int) { sum.Add(int64(i)) })
	want := int64(n) * (n - 1) / 2
	if sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestForChunkedParallelWithPinnedWorkers(t *testing.T) {
	old := maxProcs
	defer func() { maxProcs = old }()
	maxProcs = func() int { return 4 }
	for _, n := range []int{1, 100, 5000, 99991} {
		var covered atomic.Int64
		ForChunked(n, 64, func(lo, hi int) { covered.Add(int64(hi - lo)) })
		if covered.Load() != int64(n) {
			t.Fatalf("n=%d covered %d", n, covered.Load())
		}
	}
	// Chunk larger than fair share is clamped so all workers participate.
	var covered atomic.Int64
	ForChunked(1000, 1<<20, func(lo, hi int) { covered.Add(int64(hi - lo)) })
	if covered.Load() != 1000 {
		t.Fatalf("clamped chunk covered %d", covered.Load())
	}
}

func TestForEachWorkerParallelWithPinnedWorkers(t *testing.T) {
	old := maxProcs
	defer func() { maxProcs = old }()
	maxProcs = func() int { return 4 }
	seen := make([]int32, 4)
	ForEachWorker(func(w, workers int) {
		if workers != 4 {
			t.Errorf("workers = %d", workers)
		}
		atomic.AddInt32(&seen[w], 1)
	})
	for w, c := range seen {
		if c != 1 {
			t.Fatalf("worker %d ran %d times", w, c)
		}
	}
}

func TestReduceParallelWithPinnedWorkers(t *testing.T) {
	old := maxProcs
	defer func() { maxProcs = old }()
	maxProcs = func() int { return 4 }
	const n = 12345
	sum := ReduceSum(n, func(i int) int64 { return int64(i) })
	if want := int64(n) * (n - 1) / 2; sum != want {
		t.Fatalf("parallel sum = %d, want %d", sum, want)
	}
	max := ReduceMax(n, func(i int) int64 { return int64(i % 997) }, -1)
	if max != 996 {
		t.Fatalf("parallel max = %d", max)
	}
	min := ReduceMin(n, func(i int) int64 { return int64(i%997) - 5 }, 1<<62)
	if min != -5 {
		t.Fatalf("parallel min = %d", min)
	}
}

func TestMinInt32(t *testing.T) {
	v := int32(10)
	if !MinInt32(&v, 3) || v != 3 {
		t.Fatalf("MinInt32 lower: v=%d", v)
	}
	if MinInt32(&v, 5) || v != 3 {
		t.Fatalf("MinInt32 should not raise: v=%d", v)
	}
	if MinInt32(&v, 3) {
		t.Fatal("MinInt32 equal value should report false")
	}
}

func TestMinInt32ConcurrentConverges(t *testing.T) {
	v := int32(1 << 30)
	For(10000, func(i int) { MinInt32(&v, int32(i)) })
	if v != 0 {
		t.Fatalf("concurrent min = %d, want 0", v)
	}
}

func TestReduceSumMatchesSequential(t *testing.T) {
	f := func(n uint16) bool {
		m := int(n % 5000)
		want := int64(0)
		for i := 0; i < m; i++ {
			want += int64(i * i)
		}
		got := ReduceSum(m, func(i int) int64 { return int64(i * i) })
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReduceSumFloat(t *testing.T) {
	got := ReduceSum(1000, func(i int) float64 { return 0.25 })
	if got != 250 {
		t.Fatalf("float sum = %v, want 250", got)
	}
}

func TestReduceMaxMin(t *testing.T) {
	vals := []int64{5, -2, 17, 3, 17, -9, 0}
	max := ReduceMax(len(vals), func(i int) int64 { return vals[i] }, -1<<62)
	min := ReduceMin(len(vals), func(i int) int64 { return vals[i] }, 1<<62)
	if max != 17 || min != -9 {
		t.Fatalf("max=%d min=%d, want 17,-9", max, min)
	}
}

func TestReduceEmptyReturnsIdentity(t *testing.T) {
	if got := ReduceMax(0, func(int) int64 { return 99 }, -7); got != -7 {
		t.Fatalf("empty max = %d, want identity -7", got)
	}
	if got := ReduceSum(0, func(int) int64 { return 99 }); got != 0 {
		t.Fatalf("empty sum = %d, want 0", got)
	}
}

func TestCount(t *testing.T) {
	got := Count(100, func(i int) bool { return i%3 == 0 })
	if got != 34 {
		t.Fatalf("count = %d, want 34", got)
	}
}

func TestGroupRunsAllTasks(t *testing.T) {
	g := NewGroup(4)
	var n atomic.Int64
	for i := 0; i < 100; i++ {
		g.Go(func() error { n.Add(1); return nil })
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Fatalf("ran %d tasks, want 100", n.Load())
	}
}

func TestGroupBoundsConcurrency(t *testing.T) {
	const limit = 3
	g := NewGroup(limit)
	var cur, peak atomic.Int32
	for i := 0; i < 50; i++ {
		g.Go(func() error {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			cur.Add(-1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if peak.Load() > limit {
		t.Fatalf("peak concurrency %d exceeds limit %d", peak.Load(), limit)
	}
}

func TestGroupReportsError(t *testing.T) {
	g := NewGroup(0)
	boom := errors.New("boom")
	g.Go(func() error { return nil })
	g.Go(func() error { return boom })
	g.Go(func() error { return nil })
	if err := g.Wait(); !errors.Is(err, boom) {
		t.Fatalf("Wait() = %v, want boom", err)
	}
}

func TestForEachWorkerPartitionExample(t *testing.T) {
	const n = 1009
	data := make([]int32, n)
	ForEachWorker(func(w, workers int) {
		for i := w; i < n; i += workers {
			atomic.AddInt32(&data[i], 1)
		}
	})
	for i, v := range data {
		if v != 1 {
			t.Fatalf("index %d hit %d times", i, v)
		}
	}
}

func TestFoldSlicesTreeReduction(t *testing.T) {
	const n = 5000
	for stripes := 0; stripes <= 9; stripes++ {
		dst := make([]float64, n)
		srcs := make([][]float64, stripes)
		for i := range srcs {
			srcs[i] = make([]float64, n)
			for j := range srcs[i] {
				srcs[i][j] = float64(i + 1)
			}
		}
		// Σ_{i=1..stripes} i, at every index.
		want := float64(stripes*(stripes+1)) / 2
		SumSlices(dst, srcs)
		for j := 0; j < n; j++ {
			if dst[j] != want {
				t.Fatalf("stripes=%d dst[%d] = %v, want %v", stripes, j, dst[j], want)
			}
		}
	}
}

func TestFoldSlicesCustomOp(t *testing.T) {
	dst := []int64{10, 0, 7}
	srcs := [][]int64{{1, 5, 2}, {4, 3, 9}}
	FoldSlices(dst, srcs, func(a, b int64) int64 {
		if a >= b {
			return a
		}
		return b
	})
	want := []int64{10, 5, 9}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
}

func TestFoldSlicesLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched stripe length")
		}
	}()
	SumSlices(make([]float64, 4), [][]float64{make([]float64, 3)})
}
