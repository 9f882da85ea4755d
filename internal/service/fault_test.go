package service

import (
	"context"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zkphire"
	"zkphire/internal/faultinject"
	"zkphire/internal/journal"
)

// registerCubic posts the canonical circuit and returns its ID.
func registerCubic(t *testing.T, url string, k uint64) string {
	t.Helper()
	resp, raw := postJSON(t, url+"/circuits", cubicSpec(k))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, raw)
	}
	var reg RegisterResponse
	if err := json.Unmarshal(raw, &reg); err != nil {
		t.Fatal(err)
	}
	return reg.CircuitID
}

func proveOnce(t *testing.T, url string, req ProveRequest) (*http.Response, ProveResponse, []byte) {
	t.Helper()
	resp, raw := postJSON(t, url+"/prove", req)
	var pr ProveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &pr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, pr, raw
}

// TestPanicIsolation pins the job-boundary guarantee: a panic inside a
// prove job becomes a structured 500, its queue slot provably comes
// back, and the daemon keeps proving.
func TestPanicIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	id := registerCubic(t, ts.URL, 5)

	faultinject.Reset()
	faultinject.Arm("queue.job", faultinject.Fault{Mode: faultinject.ModePanic, Count: 1})
	defer faultinject.Reset()

	resp, _, raw := proveOnce(t, ts.URL, ProveRequest{CircuitID: id})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked job = %d, want 500: %s", resp.StatusCode, raw)
	}
	var apiErr apiError
	if err := json.Unmarshal(raw, &apiErr); err != nil || apiErr.Error == "" {
		t.Fatalf("500 body is not the error envelope: %s", raw)
	}
	if s.Metrics().ProofsPanicked.Load() != 1 {
		t.Fatalf("ProofsPanicked = %d, want 1", s.Metrics().ProofsPanicked.Load())
	}
	if n := s.local.queue.Running(); n != 0 {
		t.Fatalf("%d slots leaked across a panic", n)
	}

	// The daemon survived: the next proof succeeds and verifies.
	resp, pr, raw := proveOnce(t, ts.URL, ProveRequest{CircuitID: id})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prove after panic = %d: %s", resp.StatusCode, raw)
	}
	if pr.Proof == "" {
		t.Fatal("empty proof after panic recovery")
	}
	if n := s.local.queue.Running(); n != 0 {
		t.Fatalf("%d slots held after quiesce", n)
	}
}

// TestTransientFailureRetried: a fail-once injected fault at the job
// boundary is retried by the queue and the request still succeeds —
// the client never sees the wobble.
func TestTransientFailureRetried(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	id := registerCubic(t, ts.URL, 5)

	faultinject.Reset()
	faultinject.Arm("queue.job", faultinject.Fault{Mode: faultinject.ModeError, Count: 1})
	defer faultinject.Reset()

	resp, pr, raw := proveOnce(t, ts.URL, ProveRequest{CircuitID: id})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prove with transient fault = %d: %s", resp.StatusCode, raw)
	}
	if pr.Proof == "" {
		t.Fatal("no proof")
	}
	if got := s.Metrics().ProofsRetried.Load(); got < 1 {
		t.Fatalf("ProofsRetried = %d, want >= 1", got)
	}
	if n := s.local.queue.Running(); n != 0 {
		t.Fatalf("%d slots leaked across a retry", n)
	}
}

// TestIdempotencyKeyLifecycle drives the journal-backed exactly-once
// path over HTTP: first prove pays, the retry replays byte-identically,
// an in-flight key conflicts, and a failed key re-opens.
func TestIdempotencyKeyLifecycle(t *testing.T) {
	jnl, err := journal.Open(filepath.Join(t.TempDir(), "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	jnl.SetSync(false)
	s, ts := newTestServer(t, Config{Workers: 2, Journal: jnl})

	id := registerCubic(t, ts.URL, 5)
	if _, ok := jnl.Spec(id); !ok {
		t.Fatal("registration did not journal the circuit spec")
	}

	resp, first, raw := proveOnce(t, ts.URL, ProveRequest{CircuitID: id, IdempotencyKey: "job-1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first prove = %d: %s", resp.StatusCode, raw)
	}
	if first.Replayed {
		t.Fatal("first proof claims to be a replay")
	}

	resp, second, raw := proveOnce(t, ts.URL, ProveRequest{CircuitID: id, IdempotencyKey: "job-1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent retry = %d: %s", resp.StatusCode, raw)
	}
	if !second.Replayed {
		t.Fatal("retry of a completed key was re-proved, not replayed")
	}
	if second.Proof != first.Proof {
		t.Fatal("replayed proof differs from the original bytes")
	}
	if s.Metrics().ProofsReplayed.Load() != 1 {
		t.Fatalf("ProofsReplayed = %d, want 1", s.Metrics().ProofsReplayed.Load())
	}

	// A key that is pending (accepted, not settled — as if another request
	// holds it) conflicts instead of double-proving.
	if err := jnl.Accept("job-2", id, 0); err != nil {
		t.Fatal(err)
	}
	resp, _, raw = proveOnce(t, ts.URL, ProveRequest{CircuitID: id, IdempotencyKey: "job-2"})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("in-flight key = %d, want 409: %s", resp.StatusCode, raw)
	}

	// A failed key re-opens: the retry proves for real.
	if err := jnl.Fail("job-2", "synthetic failure"); err != nil {
		t.Fatal(err)
	}
	resp, pr, raw := proveOnce(t, ts.URL, ProveRequest{CircuitID: id, IdempotencyKey: "job-2"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retry of failed key = %d: %s", resp.StatusCode, raw)
	}
	if pr.Replayed {
		t.Fatal("retry of a failed key was served from the journal")
	}

	// Keys against a circuit the journal never saw are a 404, not an
	// orphaned accept record.
	resp, _, raw = proveOnce(t, ts.URL, ProveRequest{CircuitID: "00", IdempotencyKey: "job-3"})
	if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown circuit with key = %d, want 400/404: %s", resp.StatusCode, raw)
	}
}

// TestRecoverJournalReplaysPending simulates a crash: a job accepted but
// never completed is re-proved on the next start, byte-identical to the
// uninterrupted run, and the proof verifies.
func TestRecoverJournalReplaysPending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jnl, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	jnl.SetSync(false)

	// Run 1: register, prove job-done fully, accept job-lost and "crash"
	// (close everything with the record still pending).
	s1, ts1 := newTestServer(t, Config{Workers: 2, Journal: jnl})
	id := registerCubic(t, ts1.URL, 5)
	resp, golden, raw := proveOnce(t, ts1.URL, ProveRequest{CircuitID: id, IdempotencyKey: "job-done"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("golden prove = %d: %s", resp.StatusCode, raw)
	}
	if err := jnl.Accept("job-lost", id, 0); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	s1.Close()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	// Run 2: a fresh process reopens the journal and recovers.
	jnl2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	jnl2.SetSync(false)
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
	rec, ok := jnl2.Lookup("job-lost")
	if !ok || rec.State != journal.StateDone {
		t.Fatalf("job-lost after recovery = %+v %v", rec, ok)
	}

	// Golden-pin conformance: the deterministic prover makes the replayed
	// proof byte-identical to the uninterrupted run's.
	goldenBytes, err := base64.StdEncoding.DecodeString(golden.Proof)
	if err != nil {
		t.Fatal(err)
	}
	if string(rec.Proof) != string(goldenBytes) {
		t.Fatal("replayed proof differs from the uninterrupted run")
	}
	var proof zkphire.Proof
	if err := proof.UnmarshalBinary(rec.Proof); err != nil {
		t.Fatal(err)
	}
	sess, ok := s2.local.registry.Get(mustHash(t, id))
	if !ok {
		t.Fatal("recovery did not rebuild the session")
	}
	if err := zkphire.Verify(testSRS, sess.Prover.VerifyingKey(), &proof); err != nil {
		t.Fatalf("replayed proof does not verify: %v", err)
	}
	if n := s2.local.queue.Running(); n != 0 {
		t.Fatalf("%d slots held after recovery", n)
	}
}

// TestReplayAfterRestartAndCompact pins the "answered once, answered
// forever" contract across the daemon's full boot sequence: after a
// restart plus compaction — which empties the session registry and drops
// circuits only settled jobs reference — a retry of a completed key must
// still answer from the journal, byte-identical.
func TestReplayAfterRestartAndCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jnl, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	jnl.SetSync(false)

	s1, ts1 := newTestServer(t, Config{Workers: 2, Journal: jnl})
	id := registerCubic(t, ts1.URL, 5)
	resp, first, raw := proveOnce(t, ts1.URL, ProveRequest{CircuitID: id, IdempotencyKey: "job-done"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first prove = %d: %s", resp.StatusCode, raw)
	}
	ts1.Close()
	s1.Close()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: fresh journal handle, recovery (nothing pending), then the
	// boot-time compaction that drops the circuit's journaled spec.
	jnl2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	jnl2.SetSync(false)
	s2, ts2 := newTestServer(t, Config{Workers: 2, Journal: jnl2})
	if n, err := s2.RecoverJournal(nil); err != nil || n != 0 {
		t.Fatalf("RecoverJournal = %d, %v; want 0, nil", n, err)
	}
	if err := jnl2.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, ok := jnl2.Spec(id); ok {
		t.Fatal("compaction kept a circuit only settled jobs reference — test premise broken")
	}

	resp, pr, raw := proveOnce(t, ts2.URL, ProveRequest{CircuitID: id, IdempotencyKey: "job-done"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("settled-key retry after restart = %d: %s", resp.StatusCode, raw)
	}
	if !pr.Replayed || pr.Proof != first.Proof {
		t.Fatalf("retry after restart: replayed=%v, bytes identical=%v", pr.Replayed, pr.Proof == first.Proof)
	}

	// A FRESH key against the unregistered circuit still 404s — replay is
	// the only path that skips the registry.
	resp, _, raw = proveOnce(t, ts2.URL, ProveRequest{CircuitID: id, IdempotencyKey: "job-new"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fresh key on unregistered circuit = %d, want 404: %s", resp.StatusCode, raw)
	}
}

func mustHash(t *testing.T, id string) zkphire.CircuitHash {
	t.Helper()
	var h zkphire.CircuitHash
	b, err := hex.DecodeString(id)
	if err != nil || len(b) != len(h) {
		t.Fatalf("bad circuit id %q", id)
	}
	copy(h[:], b)
	return h
}

// TestDrainStopsAdmission: after Drain, admission endpoints 503 with a
// Retry-After, verify/healthz stay up, and healthz reports draining.
func TestDrainStopsAdmission(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	id := registerCubic(t, ts.URL, 5)
	resp, pr, raw := proveOnce(t, ts.URL, ProveRequest{CircuitID: id})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prove before drain = %d: %s", resp.StatusCode, raw)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain on an idle queue: %v", err)
	}

	resp, _, raw = proveOnce(t, ts.URL, ProveRequest{CircuitID: id})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("prove while draining = %d, want 503: %s", resp.StatusCode, raw)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("draining Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	resp2, raw2 := postJSON(t, ts.URL+"/circuits", cubicSpec(7))
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("register while draining = %d, want 503: %s", resp2.StatusCode, raw2)
	}

	// Verification of an existing proof still works during drain.
	vresp, vraw := postJSON(t, ts.URL+"/verify", VerifyRequest{CircuitID: id, Proof: pr.Proof})
	if vresp.StatusCode != http.StatusOK {
		t.Fatalf("verify while draining = %d: %s", vresp.StatusCode, vraw)
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining = %d", hresp.StatusCode)
	}
	hraw, err := io.ReadAll(hresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var health HealthResponse
	if err := json.Unmarshal(hraw, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "draining" {
		t.Fatalf("healthz status = %q, want draining", health.Status)
	}
}

// proveCounter is a backend that counts the Prove calls reaching it.
type proveCounter struct {
	Backend
	proves atomic.Int64
}

func (b *proveCounter) Prove(ctx context.Context, key, circuitID string, timeout time.Duration) ([]byte, int, error) {
	b.proves.Add(1)
	return b.Backend.Prove(ctx, key, circuitID, timeout)
}

// TestClosedServerRefusesJobs: after Close, POST /prove and ProveHex
// answer 503 "shutting down" and the backend never sees the job.
func TestClosedServerRefusesJobs(t *testing.T) {
	b := &proveCounter{Backend: newLocal(Config{SRS: testSRS, Workers: 1})}
	s := NewServer(b, testSRS, nil, 0)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	id := registerCubic(t, ts.URL, 5)
	if resp, _, raw := proveOnce(t, ts.URL, ProveRequest{CircuitID: id}); resp.StatusCode != http.StatusOK {
		t.Fatalf("prove before Close = %d: %s", resp.StatusCode, raw)
	}
	s.Close()

	resp, _, raw := proveOnce(t, ts.URL, ProveRequest{CircuitID: id})
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(raw), "shutting down") {
		t.Fatalf("POST /prove after Close = %d %s, want 503 shutting down", resp.StatusCode, raw)
	}
	var e *Error
	if _, _, err := s.ProveHex(context.Background(), id, 0); !errors.As(err, &e) || e.Status != http.StatusServiceUnavailable || e.Msg != "shutting down" {
		t.Fatalf("ProveHex after Close = %v, want 503 shutting down", err)
	}
	if n := b.proves.Load(); n != 1 {
		t.Fatalf("backend saw %d proves, want only the one before Close", n)
	}
}
