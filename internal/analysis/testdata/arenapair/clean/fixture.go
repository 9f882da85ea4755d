// Package fixture holds every arena-buffer form the release rule
// accepts: a direct defer after the Get, a deferred func literal over a
// lazily taken buffer, a Get with its own defer inside a worker closure,
// and the field/index hand-offs.
package fixture

import "zkphire/internal/parallel"

var pool parallel.Arena[uint64]

// deferred releases on every exit, early returns included.
func deferred(n int) int {
	buf := parallel.GetScratch(n)
	defer parallel.PutScratch(buf)
	if len(buf) > 4 {
		return 4
	}
	return len(buf)
}

// declared uses the var form of the same pairing.
func declared(n int) int {
	var buf = pool.Get(n)
	defer pool.Put(buf)
	return len(buf)
}

// lazy is the MSM Jacobian-overflow form: the buffer is taken only on
// demand, inside a helper closure, and a deferred literal Puts whatever
// the variable holds at exit (Put(nil) is a no-op).
func lazy(n int, need []bool) {
	var buf []uint64
	defer func() { pool.Put(buf) }()
	take := func() {
		if buf == nil {
			buf = pool.Get(n)
		}
	}
	for i, ok := range need {
		if ok {
			take()
			buf[i%n]++
		}
	}
}

// perWorker takes and defers its own buffer inside each worker closure.
func perWorker(n int) {
	parallel.For(2, n, func(lo, hi int) {
		tmp := pool.Get(hi - lo)
		defer pool.Put(tmp)
		clear(tmp)
	})
}

type holder struct {
	buf     []uint64
	scratch [][]uint64
}

// release is the holder's Put, run under its owner's defer.
func (h *holder) release() {
	pool.Put(h.buf)
	for _, b := range h.scratch {
		pool.Put(b)
	}
}

// fieldHandOff stores the buffer into a field at birth.
func fieldHandOff(h *holder, n int) {
	h.buf = pool.Get(n)
}

// indexHandOff fills a buffer through a local and then stores it into a
// slot, the SumCheck working-table form.
func indexHandOff(h *holder, sizes []int) {
	h.scratch = make([][]uint64, len(sizes))
	for i, n := range sizes {
		buf := pool.Get(n)
		clear(buf)
		h.scratch[i] = buf
	}
}

func owner(n int) {
	h := &holder{}
	defer h.release()
	fieldHandOff(h, n)
	indexHandOff(h, []int{n, n / 2})
}
