package testutil

import "math"

// floatTol is the repository's one float tolerance.
const floatTol = 1e-9

// AlmostEqual is the comparator every test uses for computed float64
// results that may legitimately differ in summation order (parallel
// reductions, relabelled or re-encoded graphs): relative error at most
// floatTol, measured against the larger magnitude, with an absolute floor
// of floatTol for values under 1 so that scores near zero are not held to
// a vanishing bound.
//
//	|a-b| <= floatTol * max(1, |a|, |b|)
//
// Results promised to be bit-identical are compared with ==, on a
// configuration that fixes the summation order (one worker).
func AlmostEqual(a, b float64) bool {
	return math.Abs(a-b) <= floatTol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
