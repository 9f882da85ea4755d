// Package membench measures process memory around a function call — the
// gauge behind the benchmark's peak_rss_mib (bench/) and the PR 8
// memory-regression harness (membudget_test.go).
//
// Two gauges, because containers differ:
//
//   - PeakRSSBytes reads VmHWM from /proc/self/status: the kernel's own
//     lifetime high-water mark. It is monotone for the process, so it can
//     bound a whole run but cannot isolate one call.
//   - Sample brackets one function call: it shrinks the heap to a baseline
//     (runtime.GC + debug.FreeOSMemory), then polls VmRSS from a background
//     goroutine while f runs and reports the peak it saw. This works even
//     where VmHWM is absent (some container /proc filesystems omit it) and
//     where resetting the high-water mark via /proc/self/clear_refs is not
//     permitted.
//
// The sampler is a polling gauge: a sub-millisecond allocation spike can
// land between samples, so treat Sample's peak as a floor with roughly one
// poll interval of blur, and leave slack in assertions built on it.
package membench

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// Result is one bracketed measurement.
type Result struct {
	// BaselineBytes is the resident set right before f started, after the
	// heap was shrunk (GC + FreeOSMemory).
	BaselineBytes int64
	// PeakBytes is the largest resident set sampled while f ran.
	PeakBytes int64
}

// DeltaBytes is the peak growth over the baseline — the call's own
// footprint, clamped at zero.
func (r Result) DeltaBytes() int64 {
	d := r.PeakBytes - r.BaselineBytes
	if d < 0 {
		return 0
	}
	return d
}

// pollInterval is the sampler's cadence: fine enough to catch the prover's
// table-allocation plateaus (tens of milliseconds each at regression-test
// sizes), coarse enough to cost nothing.
const pollInterval = time.Millisecond

// Sample shrinks the heap, runs f, and reports the baseline and peak
// resident set. The gauge prefers VmRSS (what the kernel — and a container
// memory limit — actually charges) and falls back to the Go runtime's
// in-use accounting where procfs is unavailable.
func Sample(f func()) Result {
	runtime.GC()
	debug.FreeOSMemory()
	base := CurrentRSSBytes()
	peak := base
	done := make(chan struct{})
	quiet := make(chan struct{})
	//zkvet:ignore norawgo background RSS poller bracketing exactly one call; joined via the quiet channel before Sample returns
	go func() {
		defer close(quiet)
		ticker := time.NewTicker(pollInterval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if r := CurrentRSSBytes(); r > peak {
					peak = r
				}
			}
		}
	}()
	f()
	close(done)
	<-quiet
	if r := CurrentRSSBytes(); r > peak {
		peak = r
	}
	return Result{BaselineBytes: base, PeakBytes: peak}
}

// SampleUnderLimit is Sample with the Go runtime's soft memory limit set to
// limit for the duration of f (and restored afterwards). The limit makes
// the GC actually return freed pages promptly, so VmRSS tracks the live set
// instead of the allocator's high-water mark — this is what turns the
// streamed prover's bounded live set into a bounded resident set.
func SampleUnderLimit(limit int64, f func()) Result {
	old := debug.SetMemoryLimit(limit)
	defer debug.SetMemoryLimit(old)
	return Sample(f)
}

// PeakRSSBytes returns the process's lifetime high-water resident set. On
// Linux it reads VmHWM from /proc/self/status (the kernel's own gauge,
// counting every page the process ever had resident — SRS points and arena
// scratch included). Elsewhere, or if procfs omits the field, it falls back
// to runtime.ReadMemStats' Sys: the Go runtime's total OS reservation, an
// upper-bound proxy that misses nothing the runtime manages.
func PeakRSSBytes() int64 {
	if v, ok := statusBytes("VmHWM:"); ok {
		return v
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}

// CurrentRSSBytes returns the process's current resident set (VmRSS). Off
// Linux it approximates with the runtime's OS reservation minus what has
// been returned (Sys − HeapReleased).
func CurrentRSSBytes() int64 {
	if v, ok := statusBytes("VmRSS:"); ok {
		return v
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys - ms.HeapReleased)
}

// statusBytes extracts a kB-denominated field from /proc/self/status.
func statusBytes(prefix string) (int64, bool) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if kb, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
				return kb << 10, true
			}
		}
	}
	return 0, false
}
