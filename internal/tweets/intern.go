package tweets

import (
	"math/bits"
	"strings"
	"unicode/utf8"
)

// handleIndex interns lower-cased handles as dense ids in order of first
// appearance. It is an open-addressing table probed linearly by a hash of
// the handle's ASCII-folded bytes (foldKey), so a span of text is looked
// up as it stands, without first being lowered into a new string. A slot
// holds the hash beside the id, so a probe reads a handle only on a hash
// match, and the handles are packed end to end in one byte arena, so that
// read stays in a few hundred kilobytes instead of wandering over the
// tweets' texts.
type handleIndex struct {
	arena []byte   // the lowered handles, end to end
	ends  []uint32 // id -> end of its handle in arena
	slots []uint64 // hash<<32 | id+1, or 0 for an empty slot
	shift uint     // 64 - log2(len(slots))
	names []string // id -> handle, filled by seal; Lookup still probes the arena
}

// newHandleIndex sizes the table for about n handles.
func newHandleIndex(n int) *handleIndex {
	x := &handleIndex{arena: make([]byte, 0, 8*n), ends: make([]uint32, 0, n)}
	x.alloc(max(16, n))
	return x
}

// alloc replaces the table with an empty one of at least size slots.
func (x *handleIndex) alloc(size int) {
	b := bits.Len(uint(size - 1))
	x.slots = make([]uint64, 1<<b)
	x.shift = uint(64 - b)
}

// FNV-1a over ASCII-folded bytes: foldKey, and nextMention while it finds
// the end of a handle, compute the same hash.
const (
	fnvOffset = 2166136261
	fnvPrime  = 16777619
)

// foldKey returns s as find compares it, and its hash, so a span is
// hashed and compared as it stands in the text, upper case and all. A
// handle holding a byte >= 0x80 is lowered by strings.ToLower first, as
// Unicode case mapping can change its length.
func foldKey(s string) (string, uint32) {
	h, lowered := uint32(fnvOffset), false
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf && !lowered {
			s, h, lowered, i = strings.ToLower(s), fnvOffset, true, -1 // hash the lowered handle from its start
			continue
		}
		h = (h ^ uint32(lowerByte(s[i]))) * fnvPrime
	}
	return s, h
}

// home is h's first slot: the top bits of a Fibonacci product, since
// FNV's low bits alone cluster on handles that differ in a last digit.
func (x *handleIndex) home(h uint32) int {
	return int((uint64(h) * 0x9e3779b97f4a7c15) >> x.shift)
}

// handle returns id's lowered handle in the arena.
func (x *handleIndex) handle(id int32) []byte {
	start := uint32(0)
	if id > 0 {
		start = x.ends[id-1]
	}
	return x.arena[start:x.ends[id]]
}

// find returns the id of the handle s lowers to, s and h being what
// foldKey returns.
func (x *handleIndex) find(s string, h uint32) (int32, bool) {
	mask := len(x.slots) - 1
	for i := x.home(h); ; i = (i + 1) & mask {
		e := x.slots[i]
		if e == 0 {
			return 0, false
		}
		if uint32(e>>32) != h {
			continue
		}
		// A lower-case span, the common case, matches in one memory compare.
		id := int32(uint32(e)) - 1
		if name := x.handle(id); string(name) == s || equalFold(name, s) {
			return id, true
		}
	}
}

// intern returns the id of the handle s lowers to (as strings.ToLower
// lowers it), adding it if it is new. s and h are what foldKey returns.
func (x *handleIndex) intern(s string, h uint32) int32 {
	if id, ok := x.find(s, h); ok {
		return id
	}
	id := int32(len(x.ends))
	for i := 0; i < len(s); i++ {
		x.arena = append(x.arena, lowerByte(s[i]))
	}
	x.ends = append(x.ends, uint32(len(x.arena)))
	if 2*len(x.ends) > len(x.slots) {
		old := x.slots
		x.alloc(2 * len(old))
		for _, e := range old {
			if e != 0 {
				x.place(e)
			}
		}
	}
	x.place(uint64(h)<<32 | uint64(id+1))
	return id
}

// place puts slot entry e into the first empty slot of its probe sequence.
func (x *handleIndex) place(e uint64) {
	mask := len(x.slots) - 1
	i := x.home(uint32(e >> 32))
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = e
}

// seal fills names from the arena: one string holds every handle, and
// each name is a slice of it.
func (x *handleIndex) seal() {
	all := string(x.arena)
	x.names = make([]string, len(x.ends))
	start := uint32(0)
	for id, end := range x.ends {
		x.names[id] = all[start:end]
		start = end
	}
}

// equalFold reports whether name (lowered) equals s with s's ASCII
// letters lowered.
func equalFold(name []byte, s string) bool {
	if len(name) != len(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if name[i] != lowerByte(s[i]) {
			return false
		}
	}
	return true
}
