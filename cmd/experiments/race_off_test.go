//go:build !race

package main

// raceEnabled reports whether the race detector is active; the two slow
// design-space experiments only run without it.
const raceEnabled = false
