package service

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// ProveWindowSize is the number of recent proof latencies RecentAvgProve
// averages over. Sized so a burst of slow cold-cache proofs ages out of
// the Retry-After estimate within a few dozen requests instead of
// skewing a long-lived daemon's lifetime mean forever.
const ProveWindowSize = 32

// Metrics holds the service's operational counters. All fields are atomic
// so the hot paths (registry lookups, the queue's gate) update them without
// a lock; the /metrics handler reads them racily-but-coherently, which is
// all a scrape needs.
type Metrics struct {
	// Registry / session cache.
	CacheHits          atomic.Int64
	CacheMisses        atomic.Int64
	CacheEvictions     atomic.Int64
	SingleFlightShared atomic.Int64
	Preprocesses       atomic.Int64

	// Proving pipeline.
	ProofsCompleted atomic.Int64
	ProofsFailed    atomic.Int64
	ProofsRejected  atomic.Int64 // admission control: queue full
	JobsCancelled   atomic.Int64 // cancelled or deadline-exceeded before/while proving

	// Fault tolerance.
	ProofsPanicked atomic.Int64 // panics recovered at the job boundary
	ProofsRetried  atomic.Int64 // extra attempts after a transient failure
	ProofsReplayed atomic.Int64 // keyed retries answered from the journal

	// Proof latency (sum + count → average; a scraper derives the rate).
	ProveNanos atomic.Int64
	ProveCount atomic.Int64

	// Sliding window over the last ProveWindowSize proof latencies, the
	// load signal behind Retry-After. A ring under its own mutex: the
	// observation rate is one update per finished proof, far off any hot
	// path.
	winMu  sync.Mutex
	window [ProveWindowSize]int64
	winLen int
	winPos int
}

// ObserveProve records one successful proof latency.
func (m *Metrics) ObserveProve(d time.Duration) {
	m.ProveNanos.Add(int64(d))
	m.ProveCount.Add(1)
	m.winMu.Lock()
	m.window[m.winPos] = int64(d)
	m.winPos = (m.winPos + 1) % ProveWindowSize
	if m.winLen < ProveWindowSize {
		m.winLen++
	}
	m.winMu.Unlock()
}

// RecentAvgProve returns the mean over the last ProveWindowSize proof
// latencies (all observed ones while the window is still filling; 0
// before any proof). Once ProveWindowSize fresh observations arrive, any
// older latency regime has aged out completely — the property the
// Retry-After estimator needs and TestRecentAvgProveWindow pins.
func (m *Metrics) RecentAvgProve() time.Duration {
	m.winMu.Lock()
	defer m.winMu.Unlock()
	if m.winLen == 0 {
		return 0
	}
	var sum int64
	for i := 0; i < m.winLen; i++ {
		sum += m.window[i]
	}
	return time.Duration(sum / int64(m.winLen))
}

// HitRate returns cache hits / lookups (0 when no lookups yet).
func (m *Metrics) HitRate() float64 {
	h, miss := m.CacheHits.Load(), m.CacheMisses.Load()
	if h+miss == 0 {
		return 0
	}
	return float64(h) / float64(h+miss)
}

// Counter is one row of a role's /metrics table: each package contributes
// its rows (Backend.Scrape) and the front-end renders them all.
type Counter struct {
	Name, Help string
	V          *atomic.Int64
}

// Series is a metric family whose samples are computed at scrape time:
// a gauge, a labelled gauge, or a summary's _sum/_count pair.
type Series struct {
	Name, Help, Type string // Help "" = no HELP line
	Samples          []Sample
}

// Sample is one line of a Series; Suffix is appended to the family name
// ("_sum", `{worker="w1"}`, or nothing).
type Sample struct {
	Suffix string
	Value  float64
}

// counters is the service's row table.
func (m *Metrics) counters() []Counter {
	return []Counter{
		{"zkphired_cache_hits_total", "Session-cache hits.", &m.CacheHits},
		{"zkphired_cache_misses_total", "Session-cache misses (preprocessing paid or shared).", &m.CacheMisses},
		{"zkphired_cache_evictions_total", "Sessions evicted from the LRU.", &m.CacheEvictions},
		{"zkphired_singleflight_shared_total", "Registrations that piggybacked on an in-flight preprocessing.", &m.SingleFlightShared},
		{"zkphired_preprocess_total", "NewProver preprocessing runs.", &m.Preprocesses},
		{"zkphired_proofs_total", "Proofs completed.", &m.ProofsCompleted},
		{"zkphired_proof_failures_total", "Proof jobs that errored.", &m.ProofsFailed},
		{"zkphired_proofs_rejected_total", "Prove requests rejected by admission control (429).", &m.ProofsRejected},
		{"zkphired_jobs_cancelled_total", "Prove jobs cancelled or past deadline.", &m.JobsCancelled},
		{"zkphired_proof_panics_total", "Panics recovered at the job boundary.", &m.ProofsPanicked},
		{"zkphired_proof_retries_total", "Extra prove attempts after transient failures.", &m.ProofsRetried},
		{"zkphired_proof_replays_total", "Proofs served from or re-proved via the journal.", &m.ProofsReplayed},
	}
}

// writePrometheus renders a backend's counters, then its series in the
// order given, in the Prometheus text exposition format.
func writePrometheus(w io.Writer, b Backend) {
	family := func(name, help, typ string) {
		if help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
	}
	counters, series := b.Scrape()
	for _, c := range counters {
		family(c.Name, c.Help, "counter")
		fmt.Fprintf(w, "%s %d\n", c.Name, c.V.Load())
	}
	for _, s := range series {
		family(s.Name, s.Help, s.Type)
		for _, v := range s.Samples {
			fmt.Fprintf(w, "%s%s %g\n", s.Name, v.Suffix, v.Value)
		}
	}
}
