// Package fixture shows the sanctioned concurrency patterns outside
// internal/parallel: independent tasks via parallel.Run and chunked loops
// via parallel.For (every goroutine is spawned inside the engine against
// its worker budget). None of these are findings.
package fixture

import "zkphire/internal/parallel"

// sideBySide runs k independent tasks, the budget divided among them; the
// engine owns the spawns.
func sideBySide(workers int, items []int) []int {
	out := make([]int, len(items))
	per := parallel.Split(workers, len(items))
	parallel.Run(workers, len(items), func(i int) {
		out[i] = items[i] * per
	})
	return out
}

// chunked squares a slice in contiguous chunks — bounded concurrency
// without a single go statement in this package.
func chunked(workers int, vals []int) {
	parallel.For(workers, len(vals), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			vals[i] *= vals[i]
		}
	})
}

// nested calls a chunked kernel from inside a task: still the engine's
// goroutines, still one budget.
func nested(workers int, rows [][]int) {
	per := parallel.Split(workers, len(rows))
	parallel.Run(workers, len(rows), func(i int) {
		chunked(per, rows[i])
	})
}
