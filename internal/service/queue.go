package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
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

// ErrQueueClosed reports a Submit after Close.
var ErrQueueClosed = errors.New("service: job queue closed")

// ErrJobPanicked wraps a panic recovered at the job boundary: the job is
// reported failed (HTTP 500) and the dispatcher keeps serving. The panic
// value rides along in the error text for the client and the log.
var ErrJobPanicked = errors.New("service: job panicked")

// Queue is a bounded proving-job queue with a fixed dispatcher pool. Up to
// `inflight` jobs run concurrently, each under a worker lease from the
// shared parallel.Budget (the global budget split evenly across
// dispatchers), so overlapping requests never oversubscribe the machine.
// Beyond the in-flight jobs, at most `depth` jobs wait; further Submits
// fail fast with ErrQueueFull.
//
// Every job carries its request context: a job whose context is cancelled
// before dispatch is skipped, and one cancelled mid-run aborts between
// protocol steps (the prover checks its context) — either way the worker
// lease is released for the next job.
type Queue struct {
	budget *parallel.Budget
	perJob int // worker lease request per job
	jobs   chan *job
	m      *Metrics
	// retry bounds the dispatcher's transient-failure retries: a job whose
	// error classifies as transient (spill I/O wobble, an injected fault,
	// an offload read that the single-flight path will happily rerun) is
	// retried with exponential backoff instead of surfacing a 500 for a
	// failure the next attempt would not see. Permanent errors and panics
	// return on the first attempt.
	retry retry.Policy

	mu      sync.Mutex
	closed  bool
	wg      sync.WaitGroup
	running atomic.Int64
}

// job pairs a unit of work with its completion signal. run receives the
// job context and the leased worker count.
type job struct {
	ctx  context.Context
	run  func(ctx context.Context, workers int) error
	done chan struct{}
	err  error
}

// NewQueue starts a queue with `inflight` dispatchers (< 1 means 1) and a
// waiting room of `depth` jobs (< 0 means 0: no waiting room — a job is
// admitted only if a dispatcher can take it soon). Each job leases
// budget.Total()/inflight workers, so the dispatcher pool exactly covers
// the budget.
func NewQueue(budget *parallel.Budget, inflight, depth int, m *Metrics) *Queue {
	if inflight < 1 {
		inflight = 1
	}
	if depth < 0 {
		depth = 0
	}
	q := &Queue{
		budget: budget,
		perJob: parallel.Split(budget.Total(), inflight),
		jobs:   make(chan *job, depth),
		m:      m,
		retry:  retry.Policy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Jitter: 0.2},
	}
	q.wg.Add(inflight)
	for i := 0; i < inflight; i++ {
		//zkvet:ignore norawgo fixed-size dispatcher pool bounded by the admission-control inflight cap; per-job workers still lease from parallel.Budget
		go q.dispatch()
	}
	return q
}

// Workers returns the per-job worker lease size.
func (q *Queue) Workers() int { return q.perJob }

// Depth returns the number of jobs waiting (excluding running ones).
func (q *Queue) Depth() int { return len(q.jobs) }

// Running returns the number of jobs a dispatcher has picked up and not
// yet finished — including ones still waiting for their worker lease, so
// saturation is visible even when every dispatcher is parked in Acquire.
func (q *Queue) Running() int { return int(q.running.Load()) }

// Submit enqueues run and blocks until it finishes or ctx is done. It
// returns ErrQueueFull without blocking when the waiting room is at
// capacity. A ctx cancellation while the job waits abandons it (the
// dispatcher discards it unrun); the job's own error is returned
// otherwise.
func (q *Queue) Submit(ctx context.Context, run func(ctx context.Context, workers int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	j := &job{ctx: ctx, run: run, done: make(chan struct{})}

	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return ErrQueueClosed
	}
	select {
	case q.jobs <- j:
		q.mu.Unlock()
	default:
		q.mu.Unlock()
		q.m.ProofsRejected.Add(1)
		return ErrQueueFull
	}

	select {
	case <-j.done:
		return j.err
	case <-ctx.Done():
		// The dispatcher sees the dead context and skips or aborts the
		// job; we don't wait for it to get there.
		return ctx.Err()
	}
}

// dispatch is one worker of the pool: pop a job, lease workers, run it.
func (q *Queue) dispatch() {
	defer q.wg.Done()
	for j := range q.jobs {
		if err := j.ctx.Err(); err != nil {
			j.err = err
			q.m.JobsCancelled.Add(1)
			close(j.done)
			continue
		}
		// A popped job counts as running even while it waits for its
		// worker lease — otherwise a daemon whose dispatchers are all
		// parked in Acquire would report queue_depth=0, inflight=0 while
		// rejecting traffic.
		q.running.Add(1)
		attempt := 0
		j.err = retry.Do(j.ctx, q.retry, func(ctx context.Context) error {
			if attempt++; attempt > 1 {
				q.m.ProofsRetried.Add(1)
			}
			// Each attempt leases afresh: holding workers across a backoff
			// sleep would starve the jobs that could use them meanwhile.
			return q.runGuarded(ctx, j)
		})
		q.running.Add(-1)
		switch {
		case j.err == nil:
			q.m.ProofsCompleted.Add(1)
		case errors.Is(j.err, context.Canceled) || errors.Is(j.err, context.DeadlineExceeded):
			q.m.JobsCancelled.Add(1)
		default:
			q.m.ProofsFailed.Add(1)
		}
		close(j.done)
	}
}

// runGuarded is the designated panic boundary: it leases workers for one
// job attempt, runs it, and converts a panic anywhere below into
// ErrJobPanicked instead of unwinding the dispatcher (and with it the
// daemon). The lease is acquired and its release deferred here, BEFORE
// the job body runs, so it provably happens on every exit — normal
// return, error, or panic — and the budget never shrinks from a crashed
// job. recover() anywhere else in the module is a zkvet release finding.
func (q *Queue) runGuarded(ctx context.Context, j *job) (err error) {
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
	return j.run(j.ctx, lease.Workers())
}

// Close stops accepting jobs and waits for queued and running ones to
// drain.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.closed = true
	close(q.jobs)
	q.mu.Unlock()
	q.wg.Wait()
}
