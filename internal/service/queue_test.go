package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// blockingJob returns a job that parks on release until the test frees it,
// plus a channel that reports the job started running.
func blockingJob(release <-chan struct{}) (func(ctx context.Context, workers int) error, <-chan struct{}) {
	started := make(chan struct{})
	var once sync.Once
	return func(ctx context.Context, workers int) error {
		once.Do(func() { close(started) })
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}, started
}

func TestQueueAdmissionControl(t *testing.T) {
	m := &Metrics{}
	q := NewQueue(1, 1, 1, m)

	release := make(chan struct{})
	defer close(release)

	// Job 1 holds the single slot.
	run1, started := blockingJob(release)
	err1 := make(chan error, 1)
	go func() { err1 <- q.Submit(context.Background(), run1) }()
	<-started

	// Job 2 fills the one-slot waiting room.
	run2, _ := blockingJob(release)
	err2 := make(chan error, 1)
	go func() { err2 <- q.Submit(context.Background(), run2) }()
	// Wait until job 2 is actually parked in the channel so the next
	// Submit deterministically sees a full queue.
	deadline := time.After(2 * time.Second)
	for q.Depth() != 1 {
		select {
		case <-deadline:
			t.Fatalf("queue depth %d, want 1", q.Depth())
		case <-time.After(time.Millisecond):
		}
	}

	// Job 3 must be rejected immediately, not blocked.
	if err := q.Submit(context.Background(), run2); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Submit on a full queue = %v, want ErrQueueFull", err)
	}
	if got := m.ProofsRejected.Load(); got != 1 {
		t.Fatalf("ProofsRejected = %d, want 1", got)
	}
}

// TestQueueCancelFreesBudgetLease: a job cancelled mid-run hands its slot
// (its share of the worker budget) back.
func TestQueueCancelFreesBudgetLease(t *testing.T) {
	m := &Metrics{}
	q := NewQueue(2, 1, 4, m)

	release := make(chan struct{})
	defer close(release)
	run, started := blockingJob(release)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- q.Submit(ctx, run) }()
	<-started
	if q.Running() != 1 {
		t.Fatal("running job should hold a slot")
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit = %v, want context.Canceled", err)
	}
	// The job aborts (its context is dead), releases the slot and counts
	// the cancellation; poll both with the same deadline.
	deadline := time.After(2 * time.Second)
	for q.Running() != 0 || m.JobsCancelled.Load() != 1 {
		select {
		case <-deadline:
			t.Fatalf("after cancellation: %d slots held, JobsCancelled = %d (want 0 and 1)",
				q.Running(), m.JobsCancelled.Load())
		case <-time.After(time.Millisecond):
		}
	}
}

func TestQueueSkipsDeadJobs(t *testing.T) {
	m := &Metrics{}
	q := NewQueue(1, 1, 2, m)

	release := make(chan struct{})
	run1, started := blockingJob(release)
	go q.Submit(context.Background(), run1)
	<-started

	// Queue a job whose context dies while it waits; it must be abandoned
	// without running.
	ran := false
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		errc <- q.Submit(ctx, func(ctx context.Context, workers int) error {
			ran = true
			return nil
		})
	}()
	for q.Depth() != 1 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-errc
	close(release) // free job 1
	if ran {
		t.Fatal("queue ran a job whose context was already cancelled")
	}
	if got := m.JobsCancelled.Load(); got != 1 {
		t.Fatalf("JobsCancelled = %d, want 1", got)
	}
}

func TestQueueWorkerSplit(t *testing.T) {
	q := NewQueue(8, 4, 0, &Metrics{})
	if q.Workers() != 2 {
		t.Fatalf("per-job workers = %d, want 8/4 = 2", q.Workers())
	}
}

// TestSlotsCappedAtWorkers: a node never advertises more slots than it
// has workers to run them with, so a cluster worker joins with the
// capacity it really has.
func TestSlotsCappedAtWorkers(t *testing.T) {
	s, err := New(Config{SRS: testSRS, Workers: 1, MaxInflight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Slots(); got != 1 {
		t.Fatalf("Slots() = %d with 1 worker and MaxInflight 2, want 1", got)
	}
	if got := s.local.queue.Workers(); got != 1 {
		t.Fatalf("per-job workers = %d, want 1", got)
	}
}

// TestQueueRunsWaitingJobsInArrivalOrder: while the one slot is held, jobs
// submitted A, B, C wait; once it frees they run in that order.
func TestQueueRunsWaitingJobsInArrivalOrder(t *testing.T) {
	q := NewQueue(1, 1, 3, &Metrics{})
	release := make(chan struct{})
	hold, started := blockingJob(release)
	go q.Submit(context.Background(), hold)
	<-started

	// One slot runs the jobs one after another, so appending needs no lock.
	var (
		order []string
		wg    sync.WaitGroup
	)
	for i, name := range []string{"A", "B", "C"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := q.Submit(context.Background(), func(context.Context, int) error {
				order = append(order, name)
				return nil
			}); err != nil {
				t.Errorf("Submit %s = %v", name, err)
			}
		}()
		// Depth counts a job from admission; give it a moment more to park
		// before the next one arrives.
		waitUntil(t, name+" to wait", func() bool { return q.Depth() == i+1 })
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	wg.Wait()
	if got := strings.Join(order, ""); got != "ABC" {
		t.Fatalf("waiting jobs ran in order %q, want ABC", got)
	}
}
