// Package fixture spawns raw goroutines outside internal/parallel;
// both the loop and non-loop forms are findings, and calling an engine
// kernel from a hand-rolled goroutine is no exemption — the kernel is
// budgeted, the spawn around it still escapes the worker budget.
package fixture

import "zkphire/internal/parallel"

func spawn(done chan struct{}) {
	go func() { close(done) }() // want "raw go statement outside internal/parallel"
}

func spawnLoop(ch chan int) {
	for i := 0; i < 4; i++ {
		go func() { ch <- i }() // want "goroutine spawned in a loop outside internal/parallel"
	}
}

func handRolledBackground(vals []int, done chan struct{}) {
	go func() { // want "raw go statement outside internal/parallel"
		parallel.For(2, len(vals), func(lo, hi int) {})
		close(done)
	}()
}

func handRolledFanOut(rows [][]int, done chan struct{}) {
	for _, row := range rows {
		go func() { // want "goroutine spawned in a loop outside internal/parallel"
			parallel.For(1, len(row), func(lo, hi int) {})
			done <- struct{}{}
		}()
	}
}
