package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"zkphire"
	"zkphire/internal/faultinject"
	"zkphire/internal/journal"
	"zkphire/internal/service"
)

var testSRS = zkphire.SetupDeterministic(8, 42)

// cubicSpec mirrors the service test suite's canonical circuit: prove
// knowledge of x with x³ + x + k = 30 + k.
func cubicSpec(k uint64) *service.CircuitSpec {
	return &service.CircuitSpec{
		Program: []service.Op{
			{Op: "secret", K: 3},
			{Op: "mul", A: 0, B: 0},
			{Op: "mul", A: 1, B: 0},
			{Op: "add", A: 2, B: 0},
			{Op: "add_const", A: 3, K: k},
			{Op: "assert_eq", A: 4, K: 30 + k},
		},
	}
}

// newCoordinator mounts a Coordinator on httptest with tight test
// timings and tears it down with the test.
func newCoordinator(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.SRS == nil {
		cfg.SRS = testSRS
	}
	if cfg.HeartbeatInterval == 0 {
		cfg.HeartbeatInterval = 50 * time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	// Coordinator first: Close unparks awaitJob waiters (503), so the
	// HTTP server is not stuck waiting out their timeouts.
	t.Cleanup(func() {
		c.Close()
		ts.Close()
	})
	return c, ts
}

// newWorker builds a full worker (service + agent), serves it, joins it
// to the coordinator, and tears it down with the test.
func newWorker(t *testing.T, coordURL string) (*Worker, *httptest.Server) {
	t.Helper()
	svc, err := service.New(service.Config{SRS: testSRS, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerConfig{Service: svc, CoordinatorURL: coordURL})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(w.Handler())
	w.SetAdvertiseURL(ts.URL)
	if err := w.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.Close()
		ts.Close()
		svc.Close()
	})
	return w, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func registerCubic(t *testing.T, url string, k uint64) string {
	t.Helper()
	resp, raw := postJSON(t, url+"/circuits", cubicSpec(k))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, raw)
	}
	var reg service.RegisterResponse
	if err := json.Unmarshal(raw, &reg); err != nil {
		t.Fatal(err)
	}
	return reg.CircuitID
}

func proveOnce(t *testing.T, url string, req service.ProveRequest) (*http.Response, service.ProveResponse, []byte) {
	t.Helper()
	resp, raw := postJSON(t, url+"/prove", req)
	var pr service.ProveResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &pr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, pr, raw
}

// goldenProof proves the spec on a plain single-node service — the
// byte-identical reference every cluster proof must match.
func goldenProof(t *testing.T, k uint64) []byte {
	t.Helper()
	svc, err := service.New(service.Config{SRS: testSRS, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sess, _, err := svc.RegisterSpec(context.Background(), cubicSpec(k))
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := svc.ProveHex(context.Background(), sess.Hash.String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// blackholeWorker joins the pool and takes every dispatch without ever
// proving: its handler hangs until the coordinator ends the request — the
// "presumed dead but maybe alive" worker that lease revocation exists
// for. When its request context ends it records the lease in revoked and
// still answers 200 with bogus proof bytes, the late answer that must
// never settle a job. If beat is true it heartbeats (a live-but-stuck
// worker); otherwise it goes silent and gets evicted.
type blackholeWorker struct {
	id         string
	ts         *httptest.Server
	dispatches chan DispatchRequest
	revoked    chan DispatchRequest
	stop       chan struct{}
}

func newBlackhole(t *testing.T, coordURL string, beat bool) *blackholeWorker {
	t.Helper()
	b := &blackholeWorker{
		dispatches: make(chan DispatchRequest, 16),
		revoked:    make(chan DispatchRequest, 16),
		stop:       make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/dispatch", func(w http.ResponseWriter, r *http.Request) {
		var req DispatchRequest
		json.NewDecoder(r.Body).Decode(&req)
		b.dispatches <- req
		select {
		case <-r.Context().Done():
			b.revoked <- req
		case <-b.stop:
		}
		json.NewEncoder(w).Encode(DispatchResponse{Proof: []byte("late")})
	})
	b.ts = httptest.NewServer(mux)
	resp, raw := postJSON(t, coordURL+"/cluster/join", JoinRequest{Addr: b.ts.URL, Slots: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("blackhole join: %d %s", resp.StatusCode, raw)
	}
	var jr JoinResponse
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatal(err)
	}
	b.id = jr.WorkerID
	if beat {
		go func() {
			body, _ := json.Marshal(HeartbeatRequest{WorkerID: b.id, Addr: b.ts.URL})
			for {
				select {
				case <-b.stop:
					return
				case <-time.After(20 * time.Millisecond):
				}
				// Plain client, errors ignored: the goroutine outlives
				// teardown races and must never touch t.
				if resp, err := http.Post(coordURL+"/cluster/heartbeat", "application/json", bytes.NewReader(body)); err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	t.Cleanup(func() {
		close(b.stop)
		b.ts.Close()
	})
	return b
}

// TestClusterRoundTrip: a two-worker pool registers, proves (keyed and
// unkeyed), replays, and verifies — and the proof bytes match the
// single-node golden run exactly.
func TestClusterRoundTrip(t *testing.T) {
	c, ts := newCoordinator(t, Config{})
	newWorker(t, ts.URL)
	newWorker(t, ts.URL)
	waitFor(t, "two workers", func() bool { return c.WorkersLive() == 2 })

	id := registerCubic(t, ts.URL, 5)
	golden := goldenProof(t, 5)

	resp, pr, raw := proveOnce(t, ts.URL, service.ProveRequest{CircuitID: id})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prove = %d: %s", resp.StatusCode, raw)
	}
	got, err := base64.StdEncoding.DecodeString(pr.Proof)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatal("cluster proof differs from single-node golden run")
	}

	// The coordinator verifies locally with the VK it learned at
	// registration.
	resp, raw = postJSON(t, ts.URL+"/verify", service.VerifyRequest{CircuitID: id, Proof: pr.Proof})
	var vr service.VerifyResponse
	if err := json.Unmarshal(raw, &vr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !vr.Valid {
		t.Fatalf("verify: status %d valid %v: %s", resp.StatusCode, vr.Valid, raw)
	}

	// Unknown circuits 404 before any dispatch.
	resp, _, _ = proveOnce(t, ts.URL, service.ProveRequest{CircuitID: "ff"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown circuit = %d, want 404", resp.StatusCode)
	}
}

// TestKeyedReplayAcrossCluster: a keyed prove pays once; the retry is
// answered from the coordinator's journal without touching a worker.
func TestKeyedReplayAcrossCluster(t *testing.T) {
	jnl, err := journal.Open(filepath.Join(t.TempDir(), "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	jnl.SetSync(false)
	c, ts := newCoordinator(t, Config{Journal: jnl})
	newWorker(t, ts.URL)
	waitFor(t, "worker", func() bool { return c.WorkersLive() == 1 })

	id := registerCubic(t, ts.URL, 5)
	resp, first, raw := proveOnce(t, ts.URL, service.ProveRequest{CircuitID: id, IdempotencyKey: "job-1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prove = %d: %s", resp.StatusCode, raw)
	}
	resp, second, raw := proveOnce(t, ts.URL, service.ProveRequest{CircuitID: id, IdempotencyKey: "job-1"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay = %d: %s", resp.StatusCode, raw)
	}
	if !second.Replayed || second.Proof != first.Proof {
		t.Fatalf("replay: replayed=%v, bytes equal=%v", second.Replayed, second.Proof == first.Proof)
	}
	if c.Metrics().ReplaysTotal.Load() != 1 {
		t.Fatalf("ReplaysTotal = %d, want 1", c.Metrics().ReplaysTotal.Load())
	}
}

// TestJobsCompletedCountedBeforeResponse: a client that holds a proof
// finds it counted. The pool counts a job's outcome in Prove, before the
// front-end journals it and answers; counted in the completion handler
// after the job had settled, the count raced that answer.
func TestJobsCompletedCountedBeforeResponse(t *testing.T) {
	c, ts := newCoordinator(t, Config{Journal: openTestJournal(t)})
	newWorker(t, ts.URL)
	waitFor(t, "worker", func() bool { return c.WorkersLive() == 1 })
	id := registerCubic(t, ts.URL, 5)
	for i := int64(1); i <= 20; i++ {
		resp, _, raw := proveOnce(t, ts.URL, service.ProveRequest{CircuitID: id, IdempotencyKey: fmt.Sprintf("k-%d", i)})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("prove %d = %d: %s", i, resp.StatusCode, raw)
		}
		if got := c.Metrics().JobsCompletedTotal.Load(); got != i {
			t.Fatalf("client holds proof %d, JobsCompletedTotal = %d", i, got)
		}
	}
}

// TestEvictionRedispatchAndFencing is the pool's core scenario: the job
// lands on a worker that goes silent, the failure detector evicts it,
// which revokes the lease — the presumed-dead worker's request context
// ends, so its late answer cannot settle the job — and the job is
// re-dispatched to a healthy worker and completes.
func TestEvictionRedispatchAndFencing(t *testing.T) {
	c, ts := newCoordinator(t, Config{
		HeartbeatInterval: 20 * time.Millisecond,
		EvictAfter:        80 * time.Millisecond,
		LeaseTimeout:      time.Minute, // eviction, not lease expiry, must trigger the re-dispatch
	})
	// Only the blackhole is in the pool when the job arrives, so the
	// first lease must land on it. It never heartbeats.
	b := newBlackhole(t, ts.URL, false)

	id := registerViaStore(t, c, 5)
	prCh := make(chan service.ProveResponse, 1)
	go func() {
		_, pr, _ := proveOnceNoFatal(ts.URL, service.ProveRequest{CircuitID: id})
		prCh <- pr
	}()
	select {
	case <-b.dispatches:
	case <-time.After(5 * time.Second):
		t.Fatal("job never dispatched to the blackhole")
	}

	// Now the healthy worker joins; eviction should hand the job over.
	newWorker(t, ts.URL)
	waitFor(t, "eviction", func() bool { return c.Metrics().WorkerEvictionsTotal.Load() == 1 })
	waitFor(t, "re-dispatch", func() bool { return c.Metrics().JobsRedispatchedTotal.Load() >= 1 })

	pr := <-prCh
	if pr.Proof == "" {
		t.Fatal("job did not complete after re-dispatch")
	}
	golden := goldenProof(t, 5)
	got, _ := base64.StdEncoding.DecodeString(pr.Proof)
	if !bytes.Equal(got, golden) {
		t.Fatal("re-dispatched proof differs from golden")
	}

	// The evicted worker's request ended, and its late answer ("late")
	// is not what the client got.
	select {
	case <-b.revoked:
	case <-time.After(5 * time.Second):
		t.Fatal("the evicted worker's dispatch request never ended")
	}
	if c.Metrics().LeasesRevokedTotal.Load() < 1 {
		t.Fatalf("LeasesRevokedTotal = %d, want >= 1", c.Metrics().LeasesRevokedTotal.Load())
	}
}

// TestSettledJobsLeaveTheTables: the front-end's table holds only
// unsettled jobs, and the pool holds no per-job state at all. Job 0 is
// leased first to a worker that goes silent; its eviction revokes the
// lease before the worker answers. Once every job has settled, the
// front-end's table is empty, every member's load is back to zero, the
// revoked lease counts once as revoked and its late answer never counts
// as a result.
func TestSettledJobsLeaveTheTables(t *testing.T) {
	jnl := openTestJournal(t)
	c, ts := newCoordinator(t, Config{
		Journal:           jnl,
		HeartbeatInterval: 20 * time.Millisecond,
		// Long enough that the healthy worker keeps its membership while
		// it proves on a CPU-starved -race run; only the blackhole, which
		// never beats, is evicted.
		EvictAfter:  300 * time.Millisecond,
		MaxAttempts: 20,
	})
	b := newBlackhole(t, ts.URL, false)
	id := registerViaStore(t, c, 5)

	const jobs = 3
	done := make(chan service.ProveResponse, jobs)
	prove := func(i int) {
		_, pr, _ := proveOnceNoFatal(ts.URL, service.ProveRequest{CircuitID: id, IdempotencyKey: fmt.Sprintf("settled-%d", i)})
		done <- pr
	}
	go prove(0)
	select {
	case <-b.dispatches:
	case <-time.After(5 * time.Second):
		t.Fatal("job never dispatched to the blackhole")
	}
	newWorker(t, ts.URL)
	waitFor(t, "eviction", func() bool { return c.Metrics().WorkerEvictionsTotal.Load() == 1 })
	select {
	case <-b.revoked:
	case <-time.After(5 * time.Second):
		t.Fatal("the evicted worker's dispatch request never ended")
	}
	for i := 1; i < jobs; i++ {
		go prove(i)
	}
	golden := base64.StdEncoding.EncodeToString(goldenProof(t, 5))
	for i := 0; i < jobs; i++ {
		if pr := <-done; pr.Proof != golden {
			t.Fatal("a job did not complete with the golden proof")
		}
	}
	if n := c.Unsettled(); n != 0 {
		t.Fatalf("front-end still holds %d jobs after all settled", n)
	}
	for _, m := range c.pool.members.snapshot() {
		if n := m.load.Load(); n != 0 {
			t.Fatalf("member %s holds %d slots after every job settled", m.id, n)
		}
	}
	if got := c.Metrics().LeasesRevokedTotal.Load(); got != 1 {
		t.Fatalf("LeasesRevokedTotal = %d, want 1 (the evicted lease)", got)
	}
	if got := c.Metrics().ResultsDuplicateTotal.Load(); got != 0 {
		t.Fatalf("ResultsDuplicateTotal = %d, want 0 (the revoked lease's answer never arrives)", got)
	}
}

// TestLeaseTimeoutRedispatch: a live-but-stuck worker (heartbeats fine,
// never finishes) loses the lease at the deadline — its request context
// ends — and the job moves on.
func TestLeaseTimeoutRedispatch(t *testing.T) {
	c, ts := newCoordinator(t, Config{
		HeartbeatInterval: 20 * time.Millisecond,
		EvictAfter:        10 * time.Second, // never evicted: the lease deadline must do the work
		// Long enough for a pre-warmed healthy worker to prove under
		// -race, short enough that the stuck worker's lease dies quickly.
		LeaseTimeout: time.Second,
		MaxAttempts:  10,
	})
	b := newBlackhole(t, ts.URL, true)

	id := registerViaStore(t, c, 5)
	prCh := make(chan service.ProveResponse, 1)
	rawCh := make(chan []byte, 1)
	go func() {
		_, pr, raw := proveOnceNoFatal(ts.URL, service.ProveRequest{CircuitID: id})
		prCh <- pr
		rawCh <- raw
	}()
	select {
	case <-b.dispatches:
	case <-time.After(5 * time.Second):
		t.Fatal("job never dispatched to the stuck worker")
	}
	// Pre-warm the healthy worker's session so its lease covers only the
	// prove, keeping the short lease honest under -race.
	w2, _ := newWorker(t, ts.URL)
	if _, _, err := w2.svc.RegisterSpec(context.Background(), cubicSpec(5)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "lease-timeout re-dispatch", func() bool { return c.Metrics().JobsRedispatchedTotal.Load() >= 1 })
	pr := <-prCh
	if pr.Proof == "" {
		t.Fatalf("job did not complete after lease timeout: %s", <-rawCh)
	}
	if got, _ := base64.StdEncoding.DecodeString(pr.Proof); !bytes.Equal(got, goldenProof(t, 5)) {
		t.Fatal("re-dispatched proof differs from golden")
	}
	select {
	case <-b.revoked:
	case <-time.After(5 * time.Second):
		t.Fatal("the stuck worker's dispatch request never ended")
	}
	if c.Metrics().WorkerEvictionsTotal.Load() != 0 {
		t.Fatal("stuck worker was evicted despite heartbeating")
	}
}

// TestHedgedDispatch: with hedging on, a slow primary gets a second
// lease on another worker without being revoked, the fast lease wins, and
// the loser's request is cancelled — its late answer never settles.
func TestHedgedDispatch(t *testing.T) {
	c, ts := newCoordinator(t, Config{
		HeartbeatInterval: 20 * time.Millisecond,
		EvictAfter:        10 * time.Second,
		LeaseTimeout:      10 * time.Second,
		HedgeDelay:        100 * time.Millisecond,
	})
	b := newBlackhole(t, ts.URL, true)

	id := registerViaStore(t, c, 5)
	prCh := make(chan service.ProveResponse, 1)
	go func() {
		_, pr, _ := proveOnceNoFatal(ts.URL, service.ProveRequest{CircuitID: id})
		prCh <- pr
	}()
	select {
	case <-b.dispatches:
	case <-time.After(5 * time.Second):
		t.Fatal("job never dispatched to the slow worker")
	}
	newWorker(t, ts.URL)
	waitFor(t, "hedge", func() bool { return c.Metrics().JobsHedgedTotal.Load() >= 1 })
	pr := <-prCh
	if got, _ := base64.StdEncoding.DecodeString(pr.Proof); !bytes.Equal(got, goldenProof(t, 5)) {
		t.Fatal("hedged job did not complete with the golden proof")
	}
	select {
	case <-b.revoked:
	case <-time.After(5 * time.Second):
		t.Fatal("the losing lease's request was never cancelled")
	}
	// The primary lease was never declared lost — hedging must not revoke.
	if got := c.Metrics().JobsRedispatchedTotal.Load(); got != 0 {
		t.Fatalf("JobsRedispatchedTotal = %d, want 0 (hedge is not a re-dispatch)", got)
	}
	if got := c.Metrics().LeasesRevokedTotal.Load(); got != 0 {
		t.Fatalf("LeasesRevokedTotal = %d, want 0 (a hedge loser is not a revoked lease)", got)
	}
}

// TestCircuitReplicationWithFaultInjection: a worker that has never seen
// the circuit fetches it from the coordinator by content hash; an
// injected fetch failure marks the lease transient and the job survives
// via re-dispatch.
//
// Nothing here waits on an eviction (the first worker leaves), so the
// sole worker is never evicted: at the default 3 × 20 ms a CPU-starved
// -race run missed its heartbeats while it proved, and each eviction and
// rejoin burned one of the job's dispatch attempts.
func TestCircuitReplicationWithFaultInjection(t *testing.T) {
	c, ts := newCoordinator(t, Config{HeartbeatInterval: 20 * time.Millisecond, EvictAfter: 10 * time.Second})

	// Register through a first worker, then take it away: the next
	// worker must replicate the spec to prove.
	w1, _ := newWorker(t, ts.URL)
	id := registerCubic(t, ts.URL, 7)
	w1.Close()
	resp, _ := postJSON(t, ts.URL+"/cluster/leave", LeaveRequest{WorkerID: w1.ID(), Addr: w1.AdvertiseURL()})
	if resp.StatusCode != http.StatusOK {
		t.Fatal("leave failed")
	}

	faultinject.Reset()
	faultinject.Arm(PointFetch, faultinject.Fault{Mode: faultinject.ModeError, Count: 1})
	defer faultinject.Reset()

	newWorker(t, ts.URL)
	waitFor(t, "fresh worker", func() bool { return c.WorkersLive() == 1 })

	resp, pr, raw := proveOnce(t, ts.URL, service.ProveRequest{CircuitID: id})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prove = %d: %s", resp.StatusCode, raw)
	}
	golden := goldenProof(t, 7)
	got, _ := base64.StdEncoding.DecodeString(pr.Proof)
	if !bytes.Equal(got, golden) {
		t.Fatal("replicated-circuit proof differs from golden")
	}
	if c.Metrics().JobsRedispatchedTotal.Load() < 1 {
		t.Fatal("injected fetch failure did not cause a re-dispatch")
	}
}

// TestCoordinatorRestartRecovery: a keyed job accepted but unfinished
// when the coordinator dies is re-proved from the journal by the next
// incarnation, byte-identical — with a worker pool that joins only
// after recovery has started.
func TestCoordinatorRestartRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jnl, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	jnl.SetSync(false)

	// Incarnation 1: register (through a worker that then leaves), accept
	// a keyed job with no pool to run it, and die.
	c1, ts1 := newCoordinator(t, Config{Journal: jnl})
	w1, _ := newWorker(t, ts1.URL)
	id := registerCubic(t, ts1.URL, 5)
	w1.Close()
	postJSON(t, ts1.URL+"/cluster/leave", LeaveRequest{WorkerID: w1.ID(), Addr: w1.AdvertiseURL()})
	waitFor(t, "empty pool", func() bool { return c1.WorkersLive() == 0 })

	go proveOnceNoFatal(ts1.URL, service.ProveRequest{CircuitID: id, IdempotencyKey: "orphan"})
	waitFor(t, "journal accept", func() bool {
		rec, ok := jnl.Lookup("orphan")
		return ok && rec.State == journal.StatePending
	})
	c1.Close()
	ts1.Close()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	// Incarnation 2: recover from the journal, then let a worker join.
	jnl2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	jnl2.SetSync(false)
	c2, ts2 := newCoordinator(t, Config{Journal: jnl2})
	n, err := c2.StartRecovery()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if n != 1 {
		t.Fatalf("Recover spawned %d jobs, want 1", n)
	}
	newWorker(t, ts2.URL)

	waitFor(t, "recovered job", func() bool {
		rec, ok := jnl2.Lookup("orphan")
		return ok && rec.State == journal.StateDone
	})
	rec, _ := jnl2.Lookup("orphan")
	if !bytes.Equal(rec.Proof, goldenProof(t, 5)) {
		t.Fatal("recovered proof differs from golden")
	}

	// And the client's retry of the key replays it byte-identically.
	resp, pr, raw := proveOnce(t, ts2.URL, service.ProveRequest{CircuitID: id, IdempotencyKey: "orphan"})
	if resp.StatusCode != http.StatusOK || !pr.Replayed {
		t.Fatalf("retry after recovery = %d replayed=%v: %s", resp.StatusCode, pr.Replayed, raw)
	}

	// Verify by circuit_id: incarnation 2 never saw this circuit's
	// registration, so the key can only come from vkFor re-deriving it
	// from the journaled spec through a worker.
	resp, raw = postJSON(t, ts2.URL+"/verify", service.VerifyRequest{CircuitID: id, Proof: pr.Proof})
	var vr service.VerifyResponse
	if err := json.Unmarshal(raw, &vr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !vr.Valid {
		t.Fatalf("verify after restart: status %d valid %v: %s", resp.StatusCode, vr.Valid, raw)
	}
}

// TestCoordinatorUnavailableRetryAfter: every 503 the coordinator
// originates (empty pool, draining) tells the client when to come back —
// one heartbeat interval rounded up to whole seconds — like the
// single-node server's, so retry.PostJSON paces itself against both.
func TestCoordinatorUnavailableRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		beat time.Duration
		want string
	}{
		{50 * time.Millisecond, "1"},
		{2500 * time.Millisecond, "3"},
	} {
		c, ts := newCoordinator(t, Config{HeartbeatInterval: tc.beat})
		check := func(what, path string, body any) {
			t.Helper()
			resp, raw := postJSON(t, ts.URL+path, body)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("%s = %d, want 503: %s", what, resp.StatusCode, raw)
			}
			if got := resp.Header.Get("Retry-After"); got != tc.want {
				t.Fatalf("%s: Retry-After = %q, want %q (heartbeat %v)", what, got, tc.want, tc.beat)
			}
		}
		check("register on an empty pool", "/circuits", cubicSpec(5))
		if err := c.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		check("register while draining", "/circuits", cubicSpec(5))
		check("prove while draining", "/prove", service.ProveRequest{CircuitID: "ff"})
	}
}

// TestFreshKeyAfterRestartCompact: the daemon compacts the journal on
// boot, and compaction keeps only circuits referenced by a PENDING job —
// but the new coordinator preloads every pre-compact circuit spec and
// keeps serving them. A fresh keyed prove on such a circuit must
// re-journal it before Accept; it used to fail the job instantly with
// "circuit not journaled".
func TestFreshKeyAfterRestartCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.journal")
	jnl, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	jnl.SetSync(false)

	// Incarnation 1: register and fully settle a keyed job, so nothing
	// is pending when the coordinator dies.
	c1, ts1 := newCoordinator(t, Config{Journal: jnl})
	newWorker(t, ts1.URL)
	id := registerCubic(t, ts1.URL, 5)
	resp, _, raw := proveOnce(t, ts1.URL, service.ProveRequest{CircuitID: id, IdempotencyKey: "settled"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prove = %d: %s", resp.StatusCode, raw)
	}
	c1.Close()
	ts1.Close()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	// Incarnation 2, in the daemon's boot order: open, build the
	// coordinator (preloads the spec table), compact (drops the circuit
	// record — no pending job references it).
	jnl2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	jnl2.SetSync(false)
	c2, ts2 := newCoordinator(t, Config{Journal: jnl2})
	if _, err := c2.StartRecovery(); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if err := jnl2.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	newWorker(t, ts2.URL)

	// A fresh key on the preloaded circuit must prove, byte-identically.
	resp, pr, raw := proveOnce(t, ts2.URL, service.ProveRequest{CircuitID: id, IdempotencyKey: "fresh-after-compact"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh keyed prove after restart+compact = %d: %s", resp.StatusCode, raw)
	}
	got, err := base64.StdEncoding.DecodeString(pr.Proof)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, goldenProof(t, 5)) {
		t.Fatal("proof differs from single-node golden run")
	}
	rec, ok := jnl2.Lookup("fresh-after-compact")
	if !ok || rec.State != journal.StateDone {
		t.Fatalf("journal record = %+v, ok=%v; want done", rec, ok)
	}
}

// registerViaStore seeds a circuit directly into the coordinator's
// replication store — for tests whose only pool member is a blackhole
// that cannot preprocess. Workers replicate it by content hash on
// demand.
func registerViaStore(t *testing.T, c *Coordinator, k uint64) string {
	t.Helper()
	spec := cubicSpec(k)
	compiled, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	id := compiled.Hash().String()
	c.pool.specMu.Lock()
	c.pool.specs[id] = raw
	c.pool.specMu.Unlock()
	return id
}

// proveOnceNoFatal is proveOnce for goroutines (no testing.T calls).
func proveOnceNoFatal(url string, req service.ProveRequest) (*http.Response, service.ProveResponse, []byte) {
	data, _ := json.Marshal(req)
	resp, err := http.Post(url+"/prove", "application/json", bytes.NewReader(data))
	if err != nil {
		return nil, service.ProveResponse{}, nil
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var pr service.ProveResponse
	if resp.StatusCode == http.StatusOK {
		json.Unmarshal(raw, &pr)
	}
	return resp, pr, raw
}
