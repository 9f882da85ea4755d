// Package parallel is the shared execution engine of the prover stack. Every
// hot kernel — MLE folds, Eq expansion, Pippenger bucket accumulation, PCS
// commitments, permutation table construction, and the SumCheck scan — runs
// its data-parallel loops through this package so that one worker budget,
// chosen at the session API, governs the whole proof.
//
// Design rules the kernels rely on:
//
//   - Determinism. Chunk boundaries depend only on (n, workers), and
//     MapReduce merges partial results in ascending chunk order. Combined
//     with the exactness of field and group arithmetic this makes every
//     proof byte-identical across worker budgets.
//   - No oversubscription. A budget of w spawns at most w goroutines per
//     loop; nested kernels receive explicit sub-budgets (see Split) instead
//     of each grabbing GOMAXPROCS.
//   - No steady-state allocation. Scratch []ff.Element buffers come from a
//     power-of-two-class sync.Pool arena (GetScratch/PutScratch), so
//     repeated proofs reuse the same table-sized buffers instead of
//     churning the GC.
//
// Concurrent sub-tasks share a budget through Split, which divides it up
// front. The proving service does the same: its queue holds one slot per
// share, so overlapping requests never exceed the global cap.
package parallel

import (
	"math/bits"
	"runtime"
	"sync"

	"zkphire/internal/ff"
)

// minGrain is the smallest number of loop iterations worth shipping to
// another goroutine; below this the spawn/join overhead dominates the few
// microseconds of field arithmetic.
const minGrain = 1 << 10

// Workers resolves a worker budget: values <= 0 mean GOMAXPROCS.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Split divides a worker budget among k concurrent sub-tasks, returning the
// per-task budget (at least 1). BatchProve and the proving service's queue
// use it to give each in-flight proof its share of the machine, and the
// prover uses it when it runs independent commitments concurrently.
func Split(workers, k int) int {
	workers = Workers(workers)
	if k <= 1 {
		return workers
	}
	per := workers / k
	if per < 1 {
		per = 1
	}
	return per
}

// WorthSplitting reports whether a loop of n iterations could be chunked
// across more than one goroutine at any budget. Callers use it to skip
// setting up out-of-place scratch buffers when the loop would run inline
// anyway.
func WorthSplitting(n int) bool { return n >= 2*minGrain }

// chunks returns the number of contiguous chunks [0,n) is cut into for the
// given budget: at most `workers`, and never so many that a chunk drops
// below grain iterations.
func chunks(workers, n, grain int) int {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if grain < 1 {
		grain = 1
	}
	maxByGrain := n / grain
	if maxByGrain < 1 {
		maxByGrain = 1
	}
	if workers > maxByGrain {
		workers = maxByGrain
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// For runs body over [0, n) in contiguous chunks, using at most `workers`
// goroutines (<= 0 means GOMAXPROCS). body must treat its [lo, hi) range as
// exclusive property; ranges never overlap. With one chunk the body runs
// inline on the calling goroutine. The default grain assumes ~100ns
// iterations (field arithmetic); use ForGrain for coarser work items.
func For(workers, n int, body func(lo, hi int)) {
	ForGrain(workers, n, minGrain, body)
}

// ForGrain is For with an explicit minimum chunk size. Curve-point loops
// (~microseconds per iteration) use a small grain so even modest inputs
// split; field-element loops keep the default.
func ForGrain(workers, n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	nc := chunks(workers, n, grain)
	if nc == 1 {
		body(0, n)
		return
	}
	chunk := (n + nc - 1) / nc
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MapReduce runs mapper over contiguous chunks of [0, n) and folds the
// partial results together in ascending chunk order:
//
//	merge(...merge(merge(m(c0), m(c1)), m(c2))..., m(ck))
//
// The chunk decomposition and merge order depend only on (n, workers), so
// the result is deterministic for exact (associative) merges and
// bit-reproducible even for floating-point ones at a fixed budget.
// It panics if n <= 0 (there is nothing to map).
func MapReduce[T any](workers, n int, mapper func(lo, hi int) T, merge func(acc, next T) T) T {
	if n <= 0 {
		panic("parallel: MapReduce over empty range")
	}
	nc := chunks(workers, n, minGrain)
	if nc == 1 {
		return mapper(0, n)
	}
	chunk := (n + nc - 1) / nc
	partials := make([]T, nc)
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			nc = c
			break
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			partials[c] = mapper(lo, hi)
		}(c, lo, hi)
	}
	wg.Wait()
	acc := partials[0]
	for c := 1; c < nc; c++ {
		acc = merge(acc, partials[c])
	}
	return acc
}

// Run executes k independent tasks with at most `workers` of them in flight
// at once. Unlike For it does not chunk — each task is one unit — so it
// suits coarse jobs like "commit one wire each". Task index order of
// completion is unspecified; callers write results into per-index slots.
func Run(workers, k int, task func(i int)) {
	if k <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > k {
		workers = k
	}
	if workers == 1 {
		for i := 0; i < k; i++ {
			task(i)
		}
		return
	}
	var next sync.Mutex
	idx := 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				i := idx
				idx++
				next.Unlock()
				if i >= k {
					return
				}
				task(i)
			}
		}()
	}
	wg.Wait()
}

// --- scratch arena ---

// maxPoolClass bounds the pooled buffer size at 2^maxPoolClass elements
// (2^26 × 32 bytes = 2 GiB for ff.Element); anything larger is allocated
// directly.
const maxPoolClass = 26

// Arena is a power-of-two-class sync.Pool of []T scratch buffers. The zero
// value is ready to use. Each hot kernel declares one package-level Arena
// per element type it recycles (field elements here, curve points and digit
// buffers in internal/curve), so repeated proofs reuse the same table-sized
// buffers instead of churning the GC.
type Arena[T any] struct {
	pools [maxPoolClass + 1]sync.Pool
	// boxes recycles the *[]T headers the pools traffic in. sync.Pool stores
	// interfaces, so Put must hand it a pointer; allocating a fresh header
	// per Put would make every Get/Put cycle cost one heap allocation, which
	// is exactly what the arena exists to avoid. Boxes parked here hold nil
	// slices.
	boxes sync.Pool
}

// Get returns a []T of length n. The contents are arbitrary (not zeroed) —
// callers overwrite (or explicitly clear) before reading. Buffers are pooled
// by power-of-two capacity class.
func (a *Arena[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	k := bits.Len(uint(n - 1)) // ceil(log2 n)
	if k > maxPoolClass {
		return make([]T, n)
	}
	if v := a.pools[k].Get(); v != nil {
		box := v.(*[]T)
		buf := *box
		*box = nil
		a.boxes.Put(box)
		return buf[:n]
	}
	return make([]T, n, 1<<k)
}

// Put returns a buffer obtained from Get to the arena. It is safe (a no-op)
// to pass buffers from other sources with non-power-of-two capacity, and
// safe to pass nil. Steady-state Get/Put cycles allocate nothing: the slice
// header box travels between the class pool and the box pool.
func (a *Arena[T]) Put(buf []T) {
	c := cap(buf)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	k := bits.Len(uint(c - 1))
	if k > maxPoolClass {
		return
	}
	var box *[]T
	if v := a.boxes.Get(); v != nil {
		box = v.(*[]T)
	} else {
		box = new([]T)
	}
	*box = buf[:c]
	a.pools[k].Put(box)
}

// scratchArena backs GetScratch/PutScratch, the field-element instance every
// MLE/SumCheck/PCS kernel shares.
var scratchArena Arena[ff.Element]

// GetScratch returns a []ff.Element of length n from the shared arena. The
// contents are arbitrary (not zeroed) — callers overwrite before reading.
func GetScratch(n int) []ff.Element { return scratchArena.Get(n) }

// PutScratch returns a buffer obtained from GetScratch to the arena.
func PutScratch(buf []ff.Element) { scratchArena.Put(buf) }
