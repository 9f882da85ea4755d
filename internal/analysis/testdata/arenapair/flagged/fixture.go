// Package fixture holds the arena-buffer violations of the release rule:
// every buffer must be Put by a defer in the function that declares it,
// or stored into a field or index.
package fixture

import "zkphire/internal/parallel"

var pool parallel.Arena[uint64]

func sum(xs []uint64) (s uint64) {
	for _, x := range xs {
		s += x
	}
	return s
}

// neverPut has no release at all (M1: the deleted defer).
func neverPut(n int) uint64 {
	buf := parallel.GetScratch(n) // want "buf from parallel.GetScratch is neither released by a deferred parallel.PutScratch"
	return uint64(len(buf))
}

// inlinePut releases on the fall-through path only; an early return or
// a panic in between strands the buffer (M2).
func inlinePut(n int) uint64 {
	buf := pool.Get(n) // want "buf from Arena.Get is neither released"
	if n > 1<<20 {
		return 0
	}
	s := sum(buf)
	pool.Put(buf)
	return s
}

// dropped discards the buffer outright (M3).
func dropped(n int) {
	_ = parallel.GetScratch(n) // want "result of parallel.GetScratch is discarded"
}

// unassigned passes the buffer straight into a call (M3).
func unassigned(n int) uint64 {
	return sum(pool.Get(n)) // want "result of Arena.Get is not assigned"
}

// deferredTooEarly defers the Put before the Get: the deferred call has
// already captured the nil slice.
func deferredTooEarly(n int) uint64 {
	var buf []uint64
	defer pool.Put(buf)
	buf = pool.Get(n) // want "buf from Arena.Get is neither released"
	return sum(buf)
}

// releasedByWorker defers the Put inside a worker closure, which runs it
// once per chunk instead of once at the owner's exit.
func releasedByWorker(n int) {
	buf := pool.Get(n) // want "buf from Arena.Get is neither released"
	parallel.For(2, n, func(lo, hi int) {
		defer pool.Put(buf)
		clear(buf[lo:hi])
	})
}
