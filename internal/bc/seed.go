package bc

// Seed-stream derivation for the adaptive estimator, which needs one
// independent RNG stream per sample from one user-facing seed; deriving
// them by small additive offsets risks collisions between streams of
// related seeds (seed X, sample 1 and seed X+offset, sample 0 would draw
// identical pairs), so streams are separated by a full 64-bit finalizer
// instead.

// mix64 is the murmur3 fmix64 finalizer: a bijective avalanche so any two
// distinct inputs give unrelated outputs.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 33)) * 0xFF51AFD7ED558CCD
	z = (z ^ (z >> 33)) * 0xC4CEB9FE1A85EC53
	return z ^ (z >> 33)
}

// deriveState builds the RNG state for stream i of seed: the seed is
// finalized first so (seed, i) and (seed', i') can only collide if a
// 64-bit avalanche collides, not through additive aliasing.
func deriveState(seed, i int64) uint64 {
	z := mix64(uint64(seed)) ^ uint64(i)*0x9E3779B97F4A7C15
	return mix64(z)
}

// sm64 is a splitmix64 PRNG: 3 multiplies and a few shifts per draw, no
// allocation, and statistically solid for sampling — each per-sample
// stream is one of these seeded via deriveState, so results are
// bit-identical regardless of worker count or scheduling.
type sm64 struct{ state uint64 }

func (r *sm64) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float64 returns a uniform draw in [0,1) with 53 random bits.
func (r *sm64) float64() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// intn returns a uniform draw in [0,n) via the multiply-shift range
// reduction (bias below 2⁻³², far under the estimator's error budget).
func (r *sm64) intn(n int32) int32 {
	return int32(uint64(uint32(n)) * (r.next() >> 32) >> 32)
}
