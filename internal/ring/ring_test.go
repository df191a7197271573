package ring

import (
	"fmt"
	"math/rand"
	"testing"
)

// names generates n seeded graph-name-like keys: a mix of short flat
// names and longer namespaced ones, the shapes real registries hold.
func names(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		switch rng.Intn(3) {
		case 0:
			out[i] = fmt.Sprintf("g%d", rng.Intn(1<<20))
		case 1:
			out[i] = fmt.Sprintf("tweets-%s-%d", []string{"h1n1", "atlflood", "sept1"}[rng.Intn(3)], i)
		default:
			out[i] = fmt.Sprintf("user/%d/graph-%d", rng.Intn(4096), rng.Intn(4096))
		}
	}
	return out
}

func workers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:8423", i+1)
	}
	return out
}

// TestBalance: over seeded name sets, every worker's share of keys stays
// within a constant factor of the fair share, for several cluster sizes.
// The bound is loose enough to be hash-stable (the test is deterministic)
// but tight enough that a broken vnode projection — all points from one
// node clumping — fails it immediately.
func TestBalance(t *testing.T) {
	keys := names(20000, 1)
	for _, n := range []int{2, 3, 4, 8} {
		r := New(workers(n), 0)
		counts := make(map[string]int)
		for _, k := range keys {
			counts[r.Get(k)]++
		}
		if len(counts) != n {
			t.Fatalf("n=%d: only %d workers own keys", n, len(counts))
		}
		fair := float64(len(keys)) / float64(n)
		for w, c := range counts {
			if ratio := float64(c) / fair; ratio < 0.5 || ratio > 1.75 {
				t.Errorf("n=%d: %s owns %d keys (%.2fx fair share; 0.5x..1.75x allowed)", n, w, c, ratio)
			}
		}
	}
}

// TestMinimalMovementOnJoin: adding a worker moves only the keys the new
// worker takes ownership of — every key whose owner changed must now be
// owned by the added node — and the moved fraction stays near the ideal
// 1/(N+1).
func TestMinimalMovementOnJoin(t *testing.T) {
	keys := names(20000, 2)
	for _, n := range []int{2, 4, 7} {
		old := New(workers(n), 0)
		grown := New(workers(n+1), 0) // workers(n+1) = workers(n) + one new node
		added := workers(n + 1)[n]
		moved := 0
		for _, k := range keys {
			was, now := old.Get(k), grown.Get(k)
			if was == now {
				continue
			}
			moved++
			if now != added {
				t.Fatalf("n=%d: key %q moved %s -> %s, not to the added node %s", n, k, was, now, added)
			}
		}
		ideal := float64(len(keys)) / float64(n+1)
		if f := float64(moved); f == 0 || f > 2*ideal {
			t.Errorf("n=%d: %d keys moved, want (0, %.0f]", n, moved, 2*ideal)
		}
	}
}

// TestMinimalMovementOnLeave is the mirror property: removing a worker
// only reassigns the keys it owned; keys on surviving workers stay put.
func TestMinimalMovementOnLeave(t *testing.T) {
	keys := names(20000, 3)
	n := 5
	full := New(workers(n), 0)
	removed := workers(n)[n-1]
	shrunk := New(workers(n-1), 0)
	for _, k := range keys {
		was, now := full.Get(k), shrunk.Get(k)
		if was == removed {
			if now == removed {
				t.Fatalf("key %q still owned by removed worker", k)
			}
			continue
		}
		if was != now {
			t.Fatalf("key %q moved %s -> %s though its owner survived", k, was, now)
		}
	}
}

// TestDegenerate: empty rings answer harmlessly, duplicates collapse,
// lookups are deterministic.
func TestDegenerate(t *testing.T) {
	empty := New(nil, 0)
	if got := empty.Get("g"); got != "" {
		t.Fatalf("empty ring Get = %q", got)
	}
	dup := New([]string{"a", "a", "b"}, 16)
	if len(dup.nodes) != 2 {
		t.Fatalf("duplicate nodes not collapsed: %v", dup.nodes)
	}
	r1, r2 := New(workers(3), 64), New(workers(3), 64)
	for _, k := range names(500, 5) {
		if r1.Get(k) != r2.Get(k) {
			t.Fatalf("lookup of %q not deterministic", k)
		}
	}
}
