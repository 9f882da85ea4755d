package service

import (
	"context"
	"encoding/base64"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"time"

	"zkphire"
	"zkphire/internal/parallel"
)

// local is the single-node Backend: sessions come from a Registry, and
// proofs and preprocessing runs alike hold one of the Queue's slots.
type local struct {
	workers  int // the resolved worker budget, for zkphired_worker_budget
	registry *Registry
	queue    *Queue
	metrics  *Metrics
	start    time.Time
}

// newLocal applies cfg's defaults and builds the backend.
func newLocal(cfg Config) *local {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2
	}
	switch {
	case cfg.QueueDepth < 0:
		cfg.QueueDepth = 0
	case cfg.QueueDepth == 0:
		cfg.QueueDepth = 4 * cfg.MaxInflight
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 32
	}
	l := &local{
		workers: parallel.Workers(cfg.Workers),
		metrics: &Metrics{},
		start:   time.Now(),
	}
	l.queue = NewQueue(l.workers, cfg.MaxInflight, cfg.QueueDepth, l.metrics)
	// Preprocessing waits at most the server's deadline cap for a slot.
	l.registry = NewRegistry(cfg.SRS, l.queue, cfg.CacheSize, maxTimeout, l.metrics)
	return l
}

// Metrics exposes the local backend's counters (tests and embedders read
// them).
func (s *Server) Metrics() *Metrics { return s.local.metrics }

// Slots is how many proofs run at once: Config.MaxInflight after its
// default, capped at the worker budget. A cluster worker advertises it
// as its placement capacity.
func (s *Server) Slots() int { return s.local.queue.Slots() }

// Close implements Backend: every job ran in its caller's goroutine, so
// there is nothing left to stop.
func (l *local) Close() {}

// Replayed counts one keyed retry answered from the journal.
func (l *local) Replayed() { l.metrics.ProofsReplayed.Add(1) }

// register compiles spec and materializes (or finds) its proving session.
func (l *local) register(ctx context.Context, spec *CircuitSpec) (sess *Session, cached bool, err error) {
	compiled, err := spec.Compile()
	if err != nil {
		return nil, false, Errorf(http.StatusBadRequest, "bad request: compile: %v", err)
	}
	sess, cached, err = l.registry.Register(ctx, compiled)
	switch {
	case err == nil || ctx.Err() != nil:
	case errors.Is(err, context.DeadlineExceeded):
		// The preprocessing run timed out waiting for a slot — the
		// registration analogue of the queue's 429.
		err = Errorf(http.StatusServiceUnavailable, "register: %v", err)
	default:
		err = Errorf(http.StatusUnprocessableEntity, "register: %v", err)
	}
	return sess, cached, err
}

// Register implements Backend.
func (l *local) Register(ctx context.Context, spec *CircuitSpec) (*RegisterResponse, error) {
	sess, cached, err := l.register(ctx, spec)
	if err != nil {
		return nil, err
	}
	return &RegisterResponse{
		CircuitID:       sess.Hash.String(),
		Arithmetization: sess.Kind.String(),
		LogGates:        sess.LogGates,
		GateCount:       sess.GateCount,
		Cached:          cached,
		VerifyingKey:    base64.StdEncoding.EncodeToString(sess.VKBytes),
	}, nil
}

// session resolves a hex circuit ID to its cached session.
func (l *local) session(id string) (*Session, error) {
	var h zkphire.CircuitHash
	raw, err := hex.DecodeString(id)
	if err != nil || len(raw) != len(h) {
		return nil, Errorf(http.StatusBadRequest, "circuit_id must be %d hex bytes", len(h))
	}
	copy(h[:], raw)
	sess, ok := l.registry.Get(h)
	if !ok {
		return nil, Errorf(http.StatusNotFound, "circuit %s not registered (or evicted) — POST /circuits again", id)
	}
	return sess, nil
}

// Spec implements Backend; sessions do not keep their spec JSON.
func (l *local) Spec(id string) ([]byte, error) {
	_, err := l.session(id)
	return nil, err
}

// VerifyingKey implements Backend.
func (l *local) VerifyingKey(_ context.Context, id string) (*zkphire.VerifyingKey, error) {
	sess, err := l.session(id)
	if err != nil {
		return nil, err
	}
	return sess.Prover.VerifyingKey(), nil
}

// Prove runs one proof of a cached session through the job queue
// (admission control, a slot, bounded retries of transient
// failures) in the caller's goroutine, with timeout bounding queue wait
// plus proving, and returns the serialized proof bytes. It records the
// latency observation the Retry-After estimator feeds on.
func (l *local) Prove(ctx context.Context, _, circuitID string, timeout time.Duration) ([]byte, int, error) {
	sess, err := l.session(circuitID)
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var (
		proof   *zkphire.Proof
		workers int
	)
	started := time.Now()
	err = l.queue.Submit(ctx, func(ctx context.Context, w int) error {
		workers = w
		var err error
		proof, err = sess.Prover.ProveWorkers(ctx, w)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	data, err := proof.MarshalBinary()
	if err != nil {
		return nil, 0, fmt.Errorf("serialize proof: %w", err)
	}
	l.metrics.ObserveProve(time.Since(started))
	return data, workers, nil
}

// RetryAfter estimates when capacity frees: the jobs ahead of a new
// arrival (waiting plus running) times the windowed recent mean proof
// latency, spread across the slots, clamped to [1, 60] seconds.
// The window (Metrics.RecentAvgProve) matters on a long-lived daemon: a
// lifetime mean diluted by months of fast cached proofs would
// under-estimate a current slow-circuit regime — and vice versa —
// forever. Before any proof has finished the estimate falls back to one
// second per job slot — still queue-aware, never a hard-coded 1.
func (l *local) RetryAfter() int {
	avg := l.metrics.RecentAvgProve()
	if avg <= 0 {
		avg = time.Second
	}
	ahead := l.queue.Depth() + l.queue.Running()
	est := time.Duration(ahead) * avg / time.Duration(l.queue.Slots())
	return min(max(int((est+time.Second-1)/time.Second), 1), 60)
}

// HealthResponse answers GET /healthz on a single node.
type HealthResponse struct {
	Health
	Circuits   int `json:"circuits"`
	QueueDepth int `json:"queue_depth"`
	Inflight   int `json:"inflight"`
}

// Health implements Backend.
func (l *local) Health(h Health, _ int) any {
	return HealthResponse{Health: h, Circuits: l.registry.Len(), QueueDepth: l.queue.Depth(), Inflight: l.queue.Running()}
}

// Scrape implements Backend: the counter table, the lifetime latency
// summary, and the gauges in name order.
func (l *local) Scrape() ([]Counter, []Series) {
	m := l.metrics
	gauge := func(name string, v float64) Series {
		return Series{Name: name, Type: "gauge", Samples: []Sample{{"", v}}}
	}
	return m.counters(), []Series{
		{Name: "zkphired_proof_latency_seconds", Help: "Cumulative proof latency.", Type: "summary", Samples: []Sample{
			{"_sum", float64(m.ProveNanos.Load()) / 1e9},
			{"_count", float64(m.ProveCount.Load())},
		}},
		gauge("zkphired_cache_entries", float64(l.registry.Len())),
		gauge("zkphired_cache_hit_rate", m.HitRate()),
		gauge("zkphired_inflight", float64(l.queue.Running())),
		// The Retry-After load signal: windowed, unlike the lifetime
		// summary above.
		gauge("zkphired_proof_latency_recent_seconds", m.RecentAvgProve().Seconds()),
		gauge("zkphired_queue_depth", float64(l.queue.Depth())),
		gauge("zkphired_uptime_seconds", time.Since(l.start).Seconds()),
		gauge("zkphired_worker_budget", float64(l.workers)),
		gauge("zkphired_workers_in_use", float64(l.queue.Running()*l.queue.Workers())),
		gauge("zkphired_workers_per_job", float64(l.queue.Workers())),
	}
}
