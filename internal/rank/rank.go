// Package rank compares vertex rankings, implementing the paper's accuracy
// metric for approximate betweenness centrality: the normalized top-N% set
// Hamming distance between the actors ranked by exact and approximate
// scores (after Fagin et al.'s top-k list comparison). Top is the one
// top-k selection in the repository: betweenness's TopK, the adaptive
// estimator's ranked stopping rule, the confidence experiment and the
// most-mentioned handles all rank through it.
package rank

import (
	"cmp"
	"math"
	"sort"
)

// Top returns the indices of the k largest scores, descending, ties broken
// by ascending index so rankings are deterministic. A NaN ranks below
// every number, so it never displaces one. k is clamped to [0, len(scores)].
//
// Selection is a bounded min-heap over the k best seen so far: O(n log k)
// instead of sorting all n scores, which matters when a server request
// wants the top 10 of a multi-million-vertex graph.
func Top[T cmp.Ordered](scores []T, k int) []int32 {
	k = max(0, min(k, len(scores)))
	// worse orders by eviction priority: lowest score first, NaN below
	// every number, highest index first among ties (NaNs tie with each
	// other), so the heap root is always the candidate to drop. Two plain
	// comparisons settle every pair of distinct numbers; only when
	// neither holds is a NaN possible.
	worse := func(a, b int32) bool {
		x, y := scores[a], scores[b]
		if x < y {
			return true
		}
		if y < x {
			return false
		}
		if xNaN, yNaN := x != x, y != y; xNaN != yNaN {
			return xNaN
		}
		return a > b
	}
	heap := make([]int32, 0, k)
	if k == 0 {
		return heap
	}
	siftDown := func(i, size int) {
		for {
			l := 2*i + 1
			if l >= size {
				return
			}
			m := l
			if r := l + 1; r < size && worse(heap[r], heap[l]) {
				m = r
			}
			if !worse(heap[m], heap[i]) {
				return
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
	}
	for v := int32(0); int(v) < len(scores); v++ {
		if len(heap) < k {
			heap = append(heap, v)
			for i := len(heap) - 1; i > 0; {
				p := (i - 1) / 2
				if !worse(heap[i], heap[p]) {
					break
				}
				heap[i], heap[p] = heap[p], heap[i]
				i = p
			}
			continue
		}
		if worse(heap[0], v) {
			heap[0] = v
			siftDown(0, k)
		}
	}
	// Heap-sort extraction: repeatedly move the worst survivor to the
	// back, leaving best-to-worst order in place.
	for size := k - 1; size > 0; size-- {
		heap[0], heap[size] = heap[size], heap[0]
		siftDown(0, size)
	}
	return heap
}

// TopFraction returns the top ceil(frac*n) indices by score.
func TopFraction(scores []float64, frac float64) []int32 {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	k := int(math.Ceil(frac * float64(len(scores))))
	return Top(scores, k)
}

// Overlap returns |A ∩ B| / k for two top-k sets of equal length k: the
// "percent of top k actors present in both exact and approximate BC
// rankings" of the paper's Fig. 5. Empty sets overlap fully.
func Overlap(a, b []int32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	k := len(a)
	if len(b) > k {
		k = len(b)
	}
	inA := make(map[int32]bool, len(a))
	for _, v := range a {
		inA[v] = true
	}
	common := 0
	for _, v := range b {
		if inA[v] {
			common++
		}
	}
	return float64(common) / float64(k)
}

// NormalizedHamming returns the normalized set Hamming distance between two
// top-k sets: |A △ B| / (|A| + |B|), which is 0 for identical sets and 1
// for disjoint ones. With |A| = |B| it equals 1 − Overlap.
func NormalizedHamming(a, b []int32) float64 {
	if len(a)+len(b) == 0 {
		return 0
	}
	inA := make(map[int32]bool, len(a))
	for _, v := range a {
		inA[v] = true
	}
	inB := make(map[int32]bool, len(b))
	for _, v := range b {
		inB[v] = true
	}
	diff := 0
	for v := range inA {
		if !inB[v] {
			diff++
		}
	}
	for v := range inB {
		if !inA[v] {
			diff++
		}
	}
	return float64(diff) / float64(len(a)+len(b))
}

// TopAccuracy compares approximate scores against exact scores at the given
// top fraction, returning the Fig. 5 overlap metric.
func TopAccuracy(exact, approx []float64, frac float64) float64 {
	return Overlap(TopFraction(exact, frac), TopFraction(approx, frac))
}

// Spearman returns the Spearman rank correlation between two score vectors
// of equal length — a whole-ranking complement to the top-k set metrics.
// It returns 0 for vectors shorter than 2.
func Spearman(x, y []float64) float64 {
	n := len(x)
	if n != len(y) || n < 2 {
		return 0
	}
	rx := ranks(x)
	ry := ranks(y)
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += rx[i]
		my += ry[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var cov, vx, vy float64
	for i := 0; i < n; i++ {
		dx, dy := rx[i]-mx, ry[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// ranks assigns average ranks (1-based) with ties sharing the mean rank.
func ranks(x []float64) []float64 {
	n := len(x)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return x[idx[a]] < x[idx[b]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && x[idx[j+1]] == x[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for t := i; t <= j; t++ {
			r[idx[t]] = avg
		}
		i = j + 1
	}
	return r
}
