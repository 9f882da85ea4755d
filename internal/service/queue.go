package service

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"zkphire/internal/faultinject"
	"zkphire/internal/parallel"
	"zkphire/internal/retry"
)

// ErrQueueFull is the admission-control error: the queue's waiting room is
// at capacity, so the request is rejected immediately (HTTP 429) instead
// of parking an unbounded number of clients in front of a saturated
// prover.
var ErrQueueFull = errors.New("service: job queue full")

// ErrJobPanicked wraps a panic recovered at the job boundary: the job is
// reported failed (HTTP 500) and the caller's goroutine carries on. The
// panic value rides along in the error text for the client and the log.
var ErrJobPanicked = errors.New("service: job panicked")

// Queue is the admission gate in front of the prover. It owns no
// goroutines: a job runs in the goroutine that submits it, once it holds
// one of `inflight` slots, under a worker lease from the shared
// parallel.Budget (the global budget split evenly across the slots), so
// overlapping requests never oversubscribe the machine. Beyond the
// slot holders, at most `depth` jobs wait; further Submits fail fast with
// ErrQueueFull.
//
// Every job carries its request context: a job whose context ends while
// it waits for a slot is abandoned unrun, and one cancelled mid-run
// aborts between protocol steps (the prover checks its context) and
// hands its slot and worker lease to the next job.
type Queue struct {
	budget *parallel.Budget
	perJob int // worker lease request per job
	m      *Metrics
	// retry bounds a job's transient-failure retries: a job whose error
	// classifies as transient (spill I/O wobble, an injected fault, an
	// offload read the next attempt simply streams again) is retried
	// with exponential backoff instead of surfacing a 500 for a failure
	// the next attempt would not see. Permanent errors and panics return
	// on the first attempt.
	retry retry.Policy

	// slots holds one token per job that may run; a full buffer parks
	// further senders, and the runtime serves parked senders in arrival
	// order. admitted counts jobs past admission (waiting or holding a
	// slot), capped at capacity = inflight + depth.
	slots    chan struct{}
	capacity int64
	admitted atomic.Int64
}

// NewQueue builds a gate of `inflight` slots (< 1 means 1) and a waiting
// room of `depth` jobs (< 0 means 0: no waiting room — a job is admitted
// only if a slot is free). Each job leases budget.Total()/inflight
// workers, so the slots exactly cover the budget.
func NewQueue(budget *parallel.Budget, inflight, depth int, m *Metrics) *Queue {
	if inflight < 1 {
		inflight = 1
	}
	if depth < 0 {
		depth = 0
	}
	return &Queue{
		budget:   budget,
		perJob:   parallel.Split(budget.Total(), inflight),
		m:        m,
		retry:    retry.Policy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Jitter: 0.2},
		slots:    make(chan struct{}, inflight),
		capacity: int64(inflight + depth),
	}
}

// Workers returns the per-job worker lease size.
func (q *Queue) Workers() int { return q.perJob }

// Slots returns how many jobs run at once.
func (q *Queue) Slots() int { return cap(q.slots) }

// Depth returns the number of jobs waiting for a slot. The two counts
// are read apart, so a job passing between them is clamped, not negative.
func (q *Queue) Depth() int { return max(int(q.admitted.Load())-q.Running(), 0) }

// Running returns the number of jobs holding a slot — including ones
// still waiting for their worker lease, so saturation is visible even
// when every slot holder is parked in Acquire.
func (q *Queue) Running() int { return len(q.slots) }

// Submit runs run in the caller's goroutine once a slot frees, and
// returns its error. It returns ErrQueueFull without blocking when the
// waiting room is at capacity, and ctx.Err() if ctx ends while the job
// waits.
func (q *Queue) Submit(ctx context.Context, run func(ctx context.Context, workers int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if q.admitted.Add(1) > q.capacity {
		q.admitted.Add(-1)
		q.m.ProofsRejected.Add(1)
		return ErrQueueFull
	}
	defer q.admitted.Add(-1)
	select {
	case q.slots <- struct{}{}:
		defer func() { <-q.slots }()
	case <-ctx.Done():
	}
	// A slot won in a race with the cancellation does not run the job
	// either.
	if err := ctx.Err(); err != nil {
		q.m.JobsCancelled.Add(1)
		return err
	}

	attempt := 0
	err := retry.Do(ctx, q.retry, func(ctx context.Context) error {
		if attempt++; attempt > 1 {
			q.m.ProofsRetried.Add(1)
		}
		// Each attempt leases afresh: holding workers across a backoff
		// sleep would starve the jobs that could use them meanwhile.
		return q.runGuarded(ctx, run)
	})
	switch {
	case err == nil:
		q.m.ProofsCompleted.Add(1)
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		q.m.JobsCancelled.Add(1)
	default:
		q.m.ProofsFailed.Add(1)
	}
	return err
}

// runGuarded is the designated panic boundary: it leases workers for one
// job attempt, runs it, and converts a panic anywhere below into
// ErrJobPanicked instead of unwinding the caller (and with it the
// daemon). The lease is acquired and its release deferred here, BEFORE
// the job body runs, so it provably happens on every exit — normal
// return, error, or panic — and the budget never shrinks from a crashed
// job. recover() anywhere else in the module is a zkvet release finding.
func (q *Queue) runGuarded(ctx context.Context, run func(ctx context.Context, workers int) error) (err error) {
	lease, err := q.budget.Acquire(ctx, q.perJob)
	if err != nil {
		return err
	}
	defer lease.Release()
	defer func() {
		if r := recover(); r != nil {
			q.m.ProofsPanicked.Add(1)
			err = fmt.Errorf("%w: %v", ErrJobPanicked, r)
		}
	}()
	if err := faultinject.Hit("queue.job"); err != nil {
		return err
	}
	return run(ctx, lease.Workers())
}
