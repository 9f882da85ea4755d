package main

import (
	"math/bits"
	"sort"
	"sync"
	"time"
)

// This runner's speed wanders: for minutes at a time every workload —
// prover, SumCheck sweep, serving — runs 30–100% slower at unchanged
// CPU-time-per-wall-time, then recovers (a shared host; see README.md).
// That is more than any bound in BENCHMARK.json, so an end-to-end timing is
// reported at a reference speed instead: while the timed work runs, a
// speedometer goroutine times a short fixed kernel, which shares no code
// with the program under test, every meterEvery, and each stretch of work
// is scaled by meterRefSeconds over the kernel's trimmed-mean time during
// that stretch. The raw seconds and every stretch's kernel time stay in the
// run record.

const (
	// meterIters is the kernel's length: about half a millisecond, so that
	// the speedometer takes 2–3% of one core.
	meterIters = 70_000
	meterEvery = 20 * time.Millisecond
	// meterRefSeconds defines the reference speed: a runner whose kernel
	// samples average exactly this reports its raw seconds. It is what this
	// runner reads when it is quiet.
	meterRefSeconds = 0.49e-3
	// meterTrim is the share of samples dropped at each end before
	// averaging. The mean is what a stretch of work feels — a sample that the
	// host descheduled for 5 ms stands for work that was descheduled too —
	// but a sample also reads 5–20 ms when the Go scheduler preempts the
	// speedometer in mid-kernel (serving, with its many goroutines, does that
	// to a few samples in a hundred; proving hardly ever), which says nothing
	// about the host. Dropping a twentieth at each end removes those and
	// repeats best; its price is under-reading the heaviest slow periods
	// (README.md).
	meterTrim = 0.05
)

var calibSink uint64

// calibKernel keeps eight independent 64×64→128 multiplications in flight,
// the way Montgomery field arithmetic — where every workload here spends
// most of its time — keeps the multiplier busy. A kernel that is bound by
// multiplier throughput slows down with the workloads when the host's other
// tenants take a share of the core; a dependent chain does not (measured:
// README.md).
func calibKernel(n int) uint64 {
	var a [8]uint64
	for i := range a {
		a[i] = 0x9e3779b97f4a7c15 * uint64(i+1)
	}
	const k = 0xbf58476d1ce4e5b9
	for i := 0; i < n; i++ {
		for j := range a {
			hi, lo := bits.Mul64(a[j], k)
			a[j] = hi ^ lo
		}
	}
	var x uint64
	for _, v := range a {
		x ^= v
	}
	return x
}

// meter is the speedometer: one goroutine sampling the kernel until stopped.
type meter struct {
	quit, done chan struct{}

	mu      sync.Mutex
	samples []float64
	last    float64
}

func startMeter() *meter {
	m := &meter{quit: make(chan struct{}), done: make(chan struct{}), last: meterRefSeconds}
	//zkvet:ignore norawgo the speedometer must not share the engine it measures beside; one goroutine, joined by stop
	go func() {
		defer close(m.done)
		tick := time.NewTicker(meterEvery)
		defer tick.Stop()
		var sink uint64
		for {
			select {
			case <-m.quit:
				calibSink ^= sink
				return
			case <-tick.C:
			}
			t0 := time.Now()
			sink ^= calibKernel(meterIters)
			d := time.Since(t0).Seconds()
			m.mu.Lock()
			m.samples = append(m.samples, d)
			m.mu.Unlock()
		}
	}()
	return m
}

// lap returns the trimmed mean of the kernel samples taken since the last
// lap and starts a new stretch. A stretch too short for a single sample
// repeats the previous one's.
func (m *meter) lap() float64 {
	m.mu.Lock()
	s := m.samples
	m.samples = nil
	m.mu.Unlock()
	if len(s) > 0 {
		sort.Float64s(s)
		cut := int(meterTrim * float64(len(s)))
		s = s[cut : len(s)-cut]
		var sum float64
		for _, v := range s {
			sum += v
		}
		m.last = sum / float64(len(s))
	}
	return m.last
}

func (m *meter) stop() {
	close(m.quit)
	<-m.done
}

// speedFactor converts seconds measured while the kernel averaged
// kernelSeconds into seconds at the reference speed.
func speedFactor(kernelSeconds float64) float64 {
	return meterRefSeconds / kernelSeconds
}
