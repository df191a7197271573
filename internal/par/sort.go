package par

import "sync"

// RadixSortUint64 sorts a in place by its low bits bits (ascending) with a
// parallel least-significant-digit radix sort: per-worker digit
// histograms, a global (digit, worker) prefix sum, and a stable parallel
// scatter per pass. Bits above the sorted width ride along untouched and
// never reorder equal keys, so a caller can carry a payload there; bits of
// 64 sorts whole words. Graph ingest packs edge endpoints into keys of
// 2·⌈log₂ n⌉ significant bits and sorts millions of them per load, so it
// pays only ⌈bits/11⌉ passes, not the six a full word takes.
func RadixSortUint64(a []uint64, bits int) {
	n := len(a)
	if n < 2 || bits <= 0 {
		return
	}
	if bits > 64 {
		bits = 64
	}
	workers := Workers()
	if n < 1<<12 {
		radixSerial(a, bits)
		return
	}
	passes := (bits + 10) / 11
	buckets := 1 << ((bits + passes - 1) / passes)
	buf := make([]uint64, n)
	hist := make([][]int64, workers)
	for w := range hist {
		hist[w] = make([]int64, buckets)
	}
	src, dst := a, buf
	for pass := 0; pass < passes; pass++ {
		// The passes split the bits evenly and never read a payload bit.
		shift := uint(pass * bits / passes)
		mask := uint64(1)<<(uint((pass+1)*bits/passes)-shift) - 1
		// Phase 1: per-worker histograms over contiguous chunks.
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				h := hist[w]
				clear(h)
				lo, hi := w*n/workers, (w+1)*n/workers
				for _, v := range src[lo:hi] {
					h[(v>>shift)&mask]++
				}
			}(w)
		}
		wg.Wait()
		// Phase 2: exclusive prefix over (digit, worker) so each worker
		// owns a stable output range per digit.
		var sum int64
		for d := 0; d <= int(mask); d++ {
			for w := 0; w < workers; w++ {
				c := hist[w][d]
				hist[w][d] = sum
				sum += c
			}
		}
		// Phase 3: stable parallel scatter.
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				h := hist[w]
				lo, hi := w*n/workers, (w+1)*n/workers
				for _, v := range src[lo:hi] {
					d := (v >> shift) & mask
					dst[h[d]] = v
					h[d]++
				}
			}(w)
		}
		wg.Wait()
		src, dst = dst, src
	}
	if passes%2 == 1 {
		ForChunked(n, 1<<16, func(lo, hi int) { copy(a[lo:hi], src[lo:hi]) })
	}
}

// radixSerial is the small-input path: the same stable LSD sort over the
// low bits bits, sequential, at most 8 bits per pass.
func radixSerial(a []uint64, bits int) {
	buf := make([]uint64, len(a))
	src, dst := a, buf
	passes := (bits + 7) / 8
	for pass := 0; pass < passes; pass++ {
		shift := uint(pass * bits / passes)
		mask := uint64(1)<<(uint((pass+1)*bits/passes)-shift) - 1
		var count [256]int
		for _, v := range src {
			count[(v>>shift)&mask]++
		}
		sum := 0
		for d := 0; d <= int(mask); d++ {
			c := count[d]
			count[d] = sum
			sum += c
		}
		for _, v := range src {
			d := (v >> shift) & mask
			dst[count[d]] = v
			count[d]++
		}
		src, dst = dst, src
	}
	if passes%2 == 1 {
		copy(a, src)
	}
}
