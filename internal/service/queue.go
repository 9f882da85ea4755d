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

// Queue is the admission gate in front of the prover, and the local
// backend's one concurrency limiter. It owns no goroutines: a job runs in
// the goroutine that submits it, once it holds one of its slots, with an
// even share of the worker budget, so overlapping requests never
// oversubscribe the machine. Preprocessing runs take a slot the same way
// (see acquire). Beyond the slot holders, at most `depth` jobs wait;
// further Submits fail fast with ErrQueueFull.
//
// Every job carries its request context: a job whose context ends while
// it waits for a slot is abandoned unrun, and one cancelled mid-run
// aborts between protocol steps (the prover checks its context) and
// hands its slot to the next job.
type Queue struct {
	perJob int // workers each slot holder runs with
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
	// order. admitted counts proofs past admission (waiting or holding a
	// slot), capped at capacity = slots + depth. waiting counts callers
	// parked in acquire, proofs and preprocessing runs alike.
	slots    chan struct{}
	capacity int64
	admitted atomic.Int64
	waiting  atomic.Int64
}

// NewQueue builds a gate over `workers` workers (<= 0 means GOMAXPROCS)
// with min(inflight, workers) slots (inflight < 1 means 1), so every slot
// holder runs with at least one worker of its own, and a waiting room of
// `depth` jobs (< 0 means 0: no waiting room — a job is admitted only if
// a slot is free). Each slot holder runs with parallel.Split(workers,
// slots) workers, so the slots exactly cover the budget.
func NewQueue(workers, inflight, depth int, m *Metrics) *Queue {
	workers = parallel.Workers(workers)
	slots := min(max(inflight, 1), workers)
	return &Queue{
		perJob:   parallel.Split(workers, slots),
		m:        m,
		retry:    retry.Policy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Jitter: 0.2},
		slots:    make(chan struct{}, slots),
		capacity: int64(slots + max(depth, 0)),
	}
}

// Workers returns the number of workers each slot holder runs with.
func (q *Queue) Workers() int { return q.perJob }

// Slots returns how many jobs run at once.
func (q *Queue) Slots() int { return cap(q.slots) }

// Depth returns the number of jobs waiting for a slot.
func (q *Queue) Depth() int { return int(q.waiting.Load()) }

// Running returns the number of slots held, by proofs and preprocessing
// runs alike.
func (q *Queue) Running() int { return len(q.slots) }

// acquire takes a slot, waiting until one frees or ctx ends. On success
// the caller must defer q.release(). A slot won in a race with the
// cancellation is handed straight back.
func (q *Queue) acquire(ctx context.Context) error {
	q.waiting.Add(1)
	select {
	case q.slots <- struct{}{}:
		q.waiting.Add(-1)
	case <-ctx.Done():
		q.waiting.Add(-1)
		return ctx.Err()
	}
	if err := ctx.Err(); err != nil {
		q.release()
		return err
	}
	return nil
}

// release hands a slot acquired by acquire to the next waiter.
func (q *Queue) release() { <-q.slots }

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
	if err := q.acquire(ctx); err != nil {
		q.m.JobsCancelled.Add(1)
		return err
	}
	defer q.release()

	attempt := 0
	err := retry.Do(ctx, q.retry, func(ctx context.Context) error {
		if attempt++; attempt > 1 {
			q.m.ProofsRetried.Add(1)
		}
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

// runGuarded is the designated panic boundary: it runs one job attempt
// and converts a panic anywhere below into ErrJobPanicked instead of
// unwinding the caller (and with it the daemon). Submit's deferred slot
// release then runs on every exit — normal return, error, or panic — so
// a crashed job never shrinks the machine. recover() anywhere else in
// the module is a zkvet release finding.
func (q *Queue) runGuarded(ctx context.Context, run func(ctx context.Context, workers int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			q.m.ProofsPanicked.Add(1)
			err = fmt.Errorf("%w: %v", ErrJobPanicked, r)
		}
	}()
	if err := faultinject.Hit("queue.job"); err != nil {
		return err
	}
	return run(ctx, q.perJob)
}
