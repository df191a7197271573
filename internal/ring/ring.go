// Package ring implements the consistent-hash ring the router role uses
// to partition graph names across worker shards. Each node is projected
// onto the ring at many virtual points (vnodes), a key is owned by the
// first node point at or clockwise of the key's hash, and the two
// properties the router depends on follow from the construction:
//
//   - balance: with enough vnodes the expected share of keys per node is
//     1/N with low variance, so no worker holds a disproportionate slice
//     of the registry;
//   - minimal movement: adding or removing a node only moves the keys in
//     the arcs that node's points own — every other key keeps its owner,
//     so a topology change invalidates one worker's worth of placement,
//     not the whole cluster's.
package ring

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultVnodes is the virtual-point count per node when New is given a
// non-positive one. 128 points keeps the max/mean load ratio under ~1.3
// for small clusters without making ring construction noticeable.
const DefaultVnodes = 128

// Ring is an immutable consistent-hash ring over a set of node names.
// Lookups are O(log(nodes × vnodes)); construction sorts once. A Ring is
// safe for concurrent use — topology changes build a new Ring.
type Ring struct {
	points []point  // sorted by hash, clockwise
	nodes  []string // the distinct node names, in insertion order
	vnodes int
}

type point struct {
	hash uint64
	node int // index into nodes
}

// New builds a ring over the given node names with vnodes virtual points
// per node (<= 0 uses DefaultVnodes). Duplicate names collapse to one
// node. An empty node list yields a ring whose Get returns "".
func New(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	r := &Ring{vnodes: vnodes}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if seen[n] {
			continue
		}
		seen[n] = true
		r.nodes = append(r.nodes, n)
	}
	r.points = make([]point, 0, len(r.nodes)*vnodes)
	for i, n := range r.nodes {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: hashKey(n + "#" + strconv.Itoa(v)), node: i})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Get returns the node that owns key ("" for an empty ring).
func (r *Ring) Get(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.nodes[r.points[r.search(key)].node]
}

// search returns the index of the first point at or clockwise of key's
// hash, wrapping to 0 past the last point.
func (r *Ring) search(key string) int {
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		return 0
	}
	return i
}

// hashKey hashes a ring key. FNV-64a alone has weak avalanche on the
// near-identical "node#0".."node#127" vnode labels, which clumps a
// node's points and skews the balance badly; the splitmix64 finalizer
// decorrelates them.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer — a cheap bijective scramble with
// full avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
