package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"zkphire/internal/journal"
	"zkphire/internal/service"
)

// topology is one way to stand up the client API: what the conformance
// table needs to drive it and to look behind it.
type topology struct {
	url   string
	front *service.Server // the front-end: the server itself, or the coordinator's
	jnl   *journal.Journal
	// proofs counts the proofs the backend has produced for the front-end.
	proofs func() int64
	// health and series are the role's own /healthz fields and a sample of
	// its /metrics series.
	health, series []string
}

func openTestJournal(t *testing.T) *journal.Journal {
	t.Helper()
	jnl, err := journal.Open(filepath.Join(t.TempDir(), "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	jnl.SetSync(false)
	t.Cleanup(func() { jnl.Close() })
	return jnl
}

func singleNode(t *testing.T) topology {
	jnl := openTestJournal(t)
	svc, err := service.New(service.Config{SRS: testSRS, Workers: 2, MaxInflight: 1, Journal: jnl})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		svc.Close()
		ts.Close()
	})
	return topology{
		url: ts.URL, front: svc, jnl: jnl,
		proofs: svc.Metrics().ProofsCompleted.Load,
		health: []string{"status", "uptime_seconds", "circuits", "queue_depth", "inflight"},
		series: []string{"zkphired_proofs_total", "zkphired_proof_replays_total", "zkphired_cache_hits_total",
			"zkphired_proof_latency_seconds_count", "zkphired_queue_depth", "zkphired_worker_budget"},
	}
}

func coordinatorWithWorker(t *testing.T) topology {
	jnl := openTestJournal(t)
	c, ts := newCoordinator(t, Config{Journal: jnl})
	newWorker(t, ts.URL)
	waitFor(t, "worker", func() bool { return c.WorkersLive() == 1 })
	return topology{
		url: ts.URL, front: c.Server, jnl: jnl,
		proofs: c.Metrics().JobsCompletedTotal.Load,
		health: []string{"status", "uptime_seconds", "circuits", "role", "workers_live", "jobs_inflight"},
		series: []string{"zkphired_jobs_completed_total", "zkphired_job_replays_total", "zkphired_jobs_dispatched_total",
			"zkphired_results_fenced_total", "zkphired_workers_live", "zkphired_worker_heartbeat_age_seconds{worker="},
	}
}

// abandon posts a prove request to an idle front-end and disconnects once
// it holds the job unsettled.
func abandon(t *testing.T, tp topology, req service.ProveRequest) {
	t.Helper()
	waitFor(t, "an idle front-end", func() bool { return tp.front.Unsettled() == 0 })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, tp.url+"/prove", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	gone := make(chan struct{})
	go func() {
		defer close(gone)
		if resp, err := http.DefaultClient.Do(hreq); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, "the job to be admitted", func() bool { return tp.front.Unsettled() == 1 })
	cancel()
	<-gone
}

// TestClientAPIConformance runs one table of client-visible behaviour
// against both topologies: whatever prover is behind it, a client meets
// one admission, idempotency-key, journal, drain, health and metrics path.
func TestClientAPIConformance(t *testing.T) {
	for name, build := range map[string]func(*testing.T) topology{
		"single-node":        singleNode,
		"coordinator+worker": coordinatorWithWorker,
	} {
		t.Run(name, func(t *testing.T) { conformance(t, build(t)) })
	}
}

func conformance(t *testing.T, tp topology) {
	errorEnvelope := func(t *testing.T, raw []byte) {
		t.Helper()
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Fatalf("expected a JSON error envelope, got %s", raw)
		}
	}
	register := func(t *testing.T, spec *service.CircuitSpec) service.RegisterResponse {
		t.Helper()
		resp, raw := postJSON(t, tp.url+"/circuits", spec)
		var reg service.RegisterResponse
		if err := json.Unmarshal(raw, &reg); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("register: %d %s", resp.StatusCode, raw)
		}
		return reg
	}
	mustProve := func(t *testing.T, req service.ProveRequest) service.ProveResponse {
		t.Helper()
		resp, pr, raw := proveOnce(t, tp.url, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("prove %+v = %d: %s", req, resp.StatusCode, raw)
		}
		return pr
	}
	golden := base64.StdEncoding.EncodeToString(goldenProof(t, 5))

	var reg service.RegisterResponse
	t.Run("register", func(t *testing.T) {
		if reg = register(t, cubicSpec(5)); reg.Cached || reg.VerifyingKey == "" {
			t.Fatalf("first registration: cached=%v, key %q", reg.Cached, reg.VerifyingKey)
		}
		if again := register(t, cubicSpec(5)); !again.Cached || again.CircuitID != reg.CircuitID {
			t.Fatalf("second registration: cached=%v id %s, want cached and %s", again.Cached, again.CircuitID, reg.CircuitID)
		}
		resp, raw := postJSON(t, tp.url+"/circuits", &service.CircuitSpec{Program: []service.Op{{Op: "frobnicate"}}})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad spec = %d, want 400: %s", resp.StatusCode, raw)
		}
		errorEnvelope(t, raw)
	})
	id := reg.CircuitID
	// The slow circuit: padded to the SRS's largest size, so its job is
	// still unsettled when the next request (or the disconnect) arrives.
	slowSpec := cubicSpec(9)
	slowSpec.LogGates = 7
	slow := register(t, slowSpec).CircuitID

	var proof service.ProveResponse
	t.Run("prove", func(t *testing.T) {
		if proof = mustProve(t, service.ProveRequest{CircuitID: id}); proof.Proof != golden || proof.Replayed {
			t.Fatalf("unkeyed proof: replayed=%v, golden bytes=%v", proof.Replayed, proof.Proof == golden)
		}
	})
	t.Run("keyed replay", func(t *testing.T) {
		first := mustProve(t, service.ProveRequest{CircuitID: id, IdempotencyKey: "k-replay"})
		made := tp.proofs()
		second := mustProve(t, service.ProveRequest{CircuitID: id, IdempotencyKey: "k-replay"})
		if first.Replayed || !second.Replayed || first.Proof != golden || second.Proof != golden {
			t.Fatalf("replayed %v then %v; golden bytes %v then %v", first.Replayed, second.Replayed, first.Proof == golden, second.Proof == golden)
		}
		if tp.proofs() != made {
			t.Fatal("the retry of a settled key was proved again")
		}
	})
	t.Run("unknown circuit", func(t *testing.T) {
		resp, _, raw := proveOnce(t, tp.url, service.ProveRequest{CircuitID: strings.Repeat("ab", 32), IdempotencyKey: "k-unknown"})
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown circuit = %d, want 404: %s", resp.StatusCode, raw)
		}
		errorEnvelope(t, raw)
		if _, ok := tp.jnl.Lookup("k-unknown"); ok {
			t.Fatal("a job against an unknown circuit left a journal record")
		}
	})

	// Unified contract 1 (the coordinator's rule): a keyed request whose
	// job is in flight in this process attaches and gets the proof.
	t.Run("concurrent requests share one proof", func(t *testing.T) {
		made := tp.proofs()
		req := service.ProveRequest{CircuitID: slow, IdempotencyKey: "k-shared"}
		firstCh := make(chan service.ProveResponse, 1)
		go func() {
			_, pr, _ := proveOnceNoFatal(tp.url, req)
			firstCh <- pr
		}()
		waitFor(t, "the first request's job", func() bool { return tp.front.Unsettled() == 1 })
		second := mustProve(t, req)
		first := <-firstCh
		if first.Proof == "" || second.Proof != first.Proof || first.Replayed || second.Replayed {
			t.Fatalf("attached request: same bytes=%v, replayed %v/%v", second.Proof == first.Proof, first.Replayed, second.Replayed)
		}
		if got := tp.proofs() - made; got != 1 {
			t.Fatalf("%d proofs made for two requests with one key, want 1", got)
		}
	})
	// ... while a key pending only in the journal (another process's, or a
	// crashed one's) conflicts, and a failed key re-opens.
	t.Run("journal-pending key", func(t *testing.T) {
		if err := tp.jnl.Accept("k-orphan", id, 0); err != nil {
			t.Fatal(err)
		}
		resp, _, raw := proveOnce(t, tp.url, service.ProveRequest{CircuitID: id, IdempotencyKey: "k-orphan"})
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("journal-pending key = %d, want 409: %s", resp.StatusCode, raw)
		}
		errorEnvelope(t, raw)
		if err := tp.jnl.Fail("k-orphan", "synthetic failure"); err != nil {
			t.Fatal(err)
		}
		if pr := mustProve(t, service.ProveRequest{CircuitID: id, IdempotencyKey: "k-orphan"}); pr.Replayed || pr.Proof != golden {
			t.Fatalf("retry of a failed key: replayed=%v, golden bytes=%v", pr.Replayed, pr.Proof == golden)
		}
	})

	// Unified contract 2 (the coordinator's rule): a keyed job runs to
	// settlement after its client disconnects; a retry collects it.
	t.Run("keyed job outlives its client", func(t *testing.T) {
		abandon(t, tp, service.ProveRequest{CircuitID: slow, IdempotencyKey: "k-abandoned"})
		waitFor(t, "the abandoned keyed job to settle", func() bool {
			rec, ok := tp.jnl.Lookup("k-abandoned")
			return ok && rec.State == journal.StateDone
		})
		if pr := mustProve(t, service.ProveRequest{CircuitID: slow, IdempotencyKey: "k-abandoned"}); !pr.Replayed {
			t.Fatal("retry of the abandoned key was not served from the journal")
		}
	})
	// Unified contract 3 (the server's rule): nobody can ever collect an
	// unkeyed job, so it is cancelled when its last waiter leaves.
	t.Run("unkeyed job dies with its client", func(t *testing.T) {
		made := tp.proofs()
		abandon(t, tp, service.ProveRequest{CircuitID: slow})
		waitFor(t, "the abandoned unkeyed job to be dropped", func() bool { return tp.front.Unsettled() == 0 })
		if got := tp.proofs() - made; got != 0 {
			t.Fatalf("an abandoned unkeyed job still produced %d proof(s) for the front-end", got)
		}
	})

	t.Run("verify", func(t *testing.T) {
		other := register(t, cubicSpec(7)).CircuitID
		for _, tc := range []struct {
			name   string
			body   any
			status int
		}{
			{"no key source", service.VerifyRequest{Proof: proof.Proof}, http.StatusBadRequest},
			{"key not base64", service.VerifyRequest{VerifyingKey: "!!", Proof: proof.Proof}, http.StatusBadRequest},
			{"key malformed", service.VerifyRequest{VerifyingKey: "AAAA", Proof: proof.Proof}, http.StatusBadRequest},
			{"proof not base64", service.VerifyRequest{CircuitID: id, Proof: "!!"}, http.StatusBadRequest},
			{"proof malformed", service.VerifyRequest{CircuitID: id, Proof: "AAAA"}, http.StatusBadRequest},
			{"unknown field", map[string]string{"circuit": id}, http.StatusBadRequest},
			{"unknown circuit", service.VerifyRequest{CircuitID: strings.Repeat("ab", 32), Proof: proof.Proof}, http.StatusNotFound},
		} {
			t.Run(tc.name, func(t *testing.T) {
				resp, raw := postJSON(t, tp.url+"/verify", tc.body)
				if resp.StatusCode != tc.status {
					t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, raw)
				}
				errorEnvelope(t, raw)
			})
		}
		for _, tc := range []struct {
			name  string
			req   service.VerifyRequest
			valid bool
		}{
			{"by circuit_id", service.VerifyRequest{CircuitID: id, Proof: proof.Proof}, true},
			{"inline key", service.VerifyRequest{VerifyingKey: reg.VerifyingKey, Proof: proof.Proof}, true},
			{"inline key wins over circuit_id", service.VerifyRequest{CircuitID: other, VerifyingKey: reg.VerifyingKey, Proof: proof.Proof}, true},
			{"proof of another circuit", service.VerifyRequest{CircuitID: other, Proof: proof.Proof}, false},
		} {
			t.Run(tc.name, func(t *testing.T) {
				resp, raw := postJSON(t, tp.url+"/verify", tc.req)
				var vr service.VerifyResponse
				if err := json.Unmarshal(raw, &vr); err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK || vr.Valid != tc.valid || (!vr.Valid && vr.Reason == "") {
					t.Fatalf("status %d valid %v reason %q, want 200 valid %v: %s", resp.StatusCode, vr.Valid, vr.Reason, tc.valid, raw)
				}
			})
		}
	})

	get := func(t *testing.T, path string) []byte {
		t.Helper()
		resp, err := http.Get(tp.url + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, %v", path, resp.StatusCode, err)
		}
		return raw
	}
	health := func(t *testing.T, status string) {
		t.Helper()
		var h map[string]any
		if err := json.Unmarshal(get(t, "/healthz"), &h); err != nil {
			t.Fatal(err)
		}
		for _, field := range tp.health {
			if _, ok := h[field]; !ok {
				t.Errorf("/healthz lacks %q: %v", field, h)
			}
		}
		if h["status"] != status {
			t.Errorf("/healthz status = %v, want %q", h["status"], status)
		}
	}
	t.Run("healthz and metrics", func(t *testing.T) {
		health(t, "ok")
		text := string(get(t, "/metrics"))
		for _, series := range tp.series {
			if !strings.Contains(text, "\n"+series) {
				t.Errorf("/metrics lacks %s\n%s", series, text)
			}
		}
		if !strings.Contains(text, "# HELP ") || !strings.Contains(text, "# TYPE ") {
			t.Error("/metrics lacks HELP/TYPE lines")
		}
	})

	t.Run("drain", func(t *testing.T) {
		if err := tp.front.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		for path, body := range map[string]any{
			"/circuits": cubicSpec(11),
			"/prove":    service.ProveRequest{CircuitID: id},
		} {
			resp, raw := postJSON(t, tp.url+path, body)
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("%s while draining = %d, want 503: %s", path, resp.StatusCode, raw)
			}
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
				t.Fatalf("%s while draining: Retry-After = %q, want a positive integer", path, resp.Header.Get("Retry-After"))
			}
			errorEnvelope(t, raw)
		}
		// Reads stay up: verification, health (now "draining") and metrics.
		resp, raw := postJSON(t, tp.url+"/verify", service.VerifyRequest{CircuitID: id, Proof: proof.Proof})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("verify while draining = %d: %s", resp.StatusCode, raw)
		}
		health(t, "draining")
	})
}
