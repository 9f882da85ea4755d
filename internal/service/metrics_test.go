package service

import (
	"testing"
	"time"
)

// TestRecentAvgProveWindow pins the sliding-window behavior behind
// Retry-After: once ProveWindowSize fresh observations arrive, an older
// latency regime has aged out of the estimate completely.
func TestRecentAvgProveWindow(t *testing.T) {
	var m Metrics

	if got := m.RecentAvgProve(); got != 0 {
		t.Fatalf("empty window mean = %v, want 0", got)
	}

	// Partial window: the mean covers only what has been observed.
	m.ObserveProve(100 * time.Millisecond)
	m.ObserveProve(300 * time.Millisecond)
	if got := m.RecentAvgProve(); got != 200*time.Millisecond {
		t.Fatalf("partial-window mean = %v, want 200ms", got)
	}

	// A long slow regime — twice the window, so wraparound is exercised.
	for i := 0; i < 2*ProveWindowSize; i++ {
		m.ObserveProve(time.Second)
	}
	if got := m.RecentAvgProve(); got != time.Second {
		t.Fatalf("slow-regime mean = %v, want 1s", got)
	}

	// Exactly ProveWindowSize fast proofs replace the slow regime
	// entirely: the window must read exactly the new value, with no
	// residue from the 1 s era.
	for i := 0; i < ProveWindowSize; i++ {
		m.ObserveProve(10 * time.Millisecond)
	}
	if got := m.RecentAvgProve(); got != 10*time.Millisecond {
		t.Fatalf("post-regime-change mean = %v, want exactly 10ms", got)
	}

	// One slow straggler moves the window by exactly its share.
	m.ObserveProve(10*time.Millisecond + ProveWindowSize*time.Second)
	want := 10*time.Millisecond + time.Second
	if got := m.RecentAvgProve(); got != want {
		t.Fatalf("straggler mean = %v, want %v", got, want)
	}
}
