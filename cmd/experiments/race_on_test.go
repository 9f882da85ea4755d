//go:build race

package main

// raceEnabled reports whether the race detector is active. fig10 and fig11
// sweep the design space for seconds without it and for minutes under it,
// so the golden test skips them.
const raceEnabled = true
