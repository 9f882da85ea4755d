package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"zkphire/internal/journal"
)

// TestDrainTimeoutLeavesJobPendingForRecovery pins the drain-timeout leg
// of the durability story: a job still running when the drain deadline
// passes stays pending in the journal (its accept record was written at
// admission, and the exiting process never settles it), and the next
// start's RecoverJournal re-proves it byte-identically. The re-exec
// chaos harness covers hard crashes; this covers the graceful-but-late
// shutdown the -drain-timeout flag produces.
func TestDrainTimeoutLeavesJobPendingForRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jnl, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	jnl.SetSync(false)

	// One slot, so a single blocking job wedges the queue.
	s1, ts1 := newTestServer(t, Config{Workers: 2, MaxInflight: 1, QueueDepth: 2, Journal: jnl})
	id := registerCubic(t, ts1.URL, 5)

	// Golden run: the uninterrupted proof recovery must reproduce.
	resp, golden, raw := proveOnce(t, ts1.URL, ProveRequest{CircuitID: id, IdempotencyKey: "golden"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("golden prove = %d: %s", resp.StatusCode, raw)
	}

	// Wedge the slot so the next prove is admitted but never runs.
	release := make(chan struct{})
	blocked := make(chan error, 1)
	go func() {
		blocked <- s1.local.queue.Submit(context.Background(), func(ctx context.Context, _ int) error {
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	}()
	deadline := time.After(5 * time.Second)
	for s1.local.queue.Running() != 1 {
		select {
		case <-deadline:
			t.Fatal("blocking job never started")
		case <-time.After(time.Millisecond):
		}
	}

	// The stuck job: accepted into the journal, queued behind the wedge.
	body, err := json.Marshal(ProveRequest{CircuitID: id, IdempotencyKey: "stuck"})
	if err != nil {
		t.Fatal(err)
	}
	httpDone := make(chan struct{})
	go func() {
		defer close(httpDone)
		resp, err := http.Post(ts1.URL+"/prove", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	for {
		if rec, ok := jnl.Lookup("stuck"); ok && rec.State == journal.StatePending {
			break
		}
		select {
		case <-deadline:
			t.Fatal("stuck job was never accepted")
		case <-time.After(time.Millisecond):
		}
	}

	// Drain with a deadline the wedged job cannot meet.
	dctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s1.Drain(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want deadline exceeded", err)
	}

	// Process exit: the journal closes with "stuck" unsettled. Closing it
	// before releasing the wedge reproduces the real daemon's ordering —
	// whatever the in-flight handler does afterwards can no longer reach
	// the file, so the on-disk record stays pending.
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatalf("wedge job: %v", err)
	}
	<-httpDone
	ts1.Close()
	s1.Close()

	// Next start: recovery re-proves the timed-out job.
	jnl2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	jnl2.SetSync(false)
	if rec, ok := jnl2.Lookup("stuck"); !ok || rec.State != journal.StatePending {
		t.Fatalf("stuck record after reopen = %+v %v, want pending", rec, ok)
	}
	s2, err := New(Config{SRS: testSRS, Workers: 2, Journal: jnl2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	n, err := s2.RecoverJournal(nil)
	if err != nil {
		t.Fatalf("RecoverJournal: %v", err)
	}
	if n != 1 {
		t.Fatalf("replayed %d jobs, want 1", n)
	}
	rec, ok := jnl2.Lookup("stuck")
	if !ok || rec.State != journal.StateDone {
		t.Fatalf("stuck after recovery = %+v %v, want done", rec, ok)
	}
	goldenBytes, err := base64.StdEncoding.DecodeString(golden.Proof)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Proof, goldenBytes) {
		t.Fatal("recovered proof differs from the uninterrupted run")
	}
}
