package par

import "sync/atomic"

// MinInt32 atomically lowers *addr to v if v is smaller, returning true when
// the store happened. It is the hooking primitive of the connected-components
// kernel ("absorb higher labeled colors into lower labeled neighbors").
func MinInt32(addr *int32, v int32) bool {
	for {
		old := atomic.LoadInt32(addr)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapInt32(addr, old, v) {
			return true
		}
	}
}
