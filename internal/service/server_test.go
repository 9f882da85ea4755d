package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"zkphire"
)

// newTestServer mounts a Server on httptest and tears both down with the
// test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.SRS == nil {
		cfg.SRS = testSRS
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
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

// TestServerRoundTrip is the service's end-to-end test: two concurrent
// clients register the same circuit (one preprocessing), prove over HTTP,
// and the proof verifies — both through /verify and offline against the
// verifying key the registration returned.
func TestServerRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})

	// Two concurrent registrations of the same circuit.
	var (
		wg    sync.WaitGroup
		regs  [2]RegisterResponse
		codes [2]int
		start = make(chan struct{})
	)
	for i := range regs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, raw := postJSON(t, ts.URL+"/circuits", cubicSpec(5))
			codes[i] = resp.StatusCode
			if resp.StatusCode == http.StatusOK {
				if err := json.Unmarshal(raw, &regs[i]); err != nil {
					t.Errorf("client %d: %v", i, err)
				}
			} else {
				t.Errorf("client %d: status %d: %s", i, resp.StatusCode, raw)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if regs[0].CircuitID != regs[1].CircuitID {
		t.Fatalf("same program, different IDs: %s vs %s", regs[0].CircuitID, regs[1].CircuitID)
	}
	if got := s.Metrics().Preprocesses.Load(); got != 1 {
		t.Fatalf("preprocess ran %d times for two concurrent registrations, want 1 (single-flight)", got)
	}

	// Prove over HTTP.
	resp, raw := postJSON(t, ts.URL+"/prove", ProveRequest{CircuitID: regs[0].CircuitID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prove: status %d: %s", resp.StatusCode, raw)
	}
	var pr ProveResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Workers < 1 {
		t.Fatalf("proof reports %d leased workers", pr.Workers)
	}

	// The service's own verdict.
	resp, raw = postJSON(t, ts.URL+"/verify", VerifyRequest{CircuitID: regs[0].CircuitID, Proof: pr.Proof})
	var vr VerifyResponse
	if err := json.Unmarshal(raw, &vr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !vr.Valid {
		t.Fatalf("verify: status %d, valid %v, reason %q", resp.StatusCode, vr.Valid, vr.Reason)
	}

	// Offline verification from the wire formats alone — the registration
	// response's verifying key plus the proof bytes.
	vkRaw, err := base64.StdEncoding.DecodeString(regs[0].VerifyingKey)
	if err != nil {
		t.Fatal(err)
	}
	vk, err := zkphire.UnmarshalVerifyingKey(vkRaw)
	if err != nil {
		t.Fatal(err)
	}
	proofRaw, err := base64.StdEncoding.DecodeString(pr.Proof)
	if err != nil {
		t.Fatal(err)
	}
	var proof zkphire.Proof
	if err := proof.UnmarshalBinary(proofRaw); err != nil {
		t.Fatal(err)
	}
	if err := zkphire.Verify(testSRS, vk, &proof); err != nil {
		t.Fatalf("offline verification failed: %v", err)
	}

	// Verifying with an inline key (no registry entry needed) also works.
	resp, raw = postJSON(t, ts.URL+"/verify", VerifyRequest{VerifyingKey: regs[0].VerifyingKey, Proof: pr.Proof})
	if err := json.Unmarshal(raw, &vr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !vr.Valid {
		t.Fatalf("inline-vk verify: status %d, valid %v", resp.StatusCode, vr.Valid)
	}

	// A proof of a different circuit is well-formed but invalid: 200 with
	// valid=false, not an error.
	reg2, raw2 := postJSON(t, ts.URL+"/circuits", cubicSpec(6))
	if reg2.StatusCode != http.StatusOK {
		t.Fatalf("register second circuit: %s", raw2)
	}
	var other RegisterResponse
	if err := json.Unmarshal(raw2, &other); err != nil {
		t.Fatal(err)
	}
	resp, raw = postJSON(t, ts.URL+"/verify", VerifyRequest{CircuitID: other.CircuitID, Proof: pr.Proof})
	if err := json.Unmarshal(raw, &vr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || vr.Valid {
		t.Fatalf("cross-circuit proof accepted: status %d, valid %v", resp.StatusCode, vr.Valid)
	}
}

func TestServerAdmissionControl429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxInflight: 1, QueueDepth: 1})

	// Register the circuit so /prove has a target.
	resp, raw := postJSON(t, ts.URL+"/circuits", cubicSpec(5))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %s", raw)
	}
	var reg RegisterResponse
	if err := json.Unmarshal(raw, &reg); err != nil {
		t.Fatal(err)
	}

	// Deterministically saturate the prover: one blocking job holds the
	// single slot, a second fills the one waiting-room place.
	release := make(chan struct{})
	occupy := func(ctx context.Context, workers int) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	done := make(chan error, 2)
	go func() { done <- s.local.queue.Submit(context.Background(), occupy) }()
	deadline := time.After(2 * time.Second)
	for s.local.queue.Running() != 1 {
		select {
		case <-deadline:
			t.Fatal("blocking job never started")
		case <-time.After(time.Millisecond):
		}
	}
	go func() { done <- s.local.queue.Submit(context.Background(), occupy) }()
	for s.local.queue.Depth() != 1 {
		select {
		case <-deadline:
			t.Fatal("second blocking job never queued")
		case <-time.After(time.Millisecond):
		}
	}

	// A prove request now hits a full queue: 429 with Retry-After, without
	// blocking the client.
	resp, raw = postJSON(t, ts.URL+"/prove", ProveRequest{CircuitID: reg.CircuitID})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d on a saturated queue, want 429: %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.Metrics().ProofsRejected.Load(); got != 1 {
		t.Fatalf("ProofsRejected = %d, want 1", got)
	}

	// Drain the blockers; the service recovers and proves normally.
	close(release)
	<-done
	<-done
	resp, raw = postJSON(t, ts.URL+"/prove", ProveRequest{CircuitID: reg.CircuitID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prove after drain: status %d: %s", resp.StatusCode, raw)
	}
}

func TestServerErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	for _, tc := range []struct {
		name   string
		path   string
		body   any
		status int
	}{
		{"unknown circuit", "/prove", ProveRequest{CircuitID: strings.Repeat("ab", 32)}, http.StatusNotFound},
		{"malformed id", "/prove", ProveRequest{CircuitID: "zz"}, http.StatusBadRequest},
		{"empty program", "/circuits", &CircuitSpec{}, http.StatusBadRequest},
		{"bad wire ref", "/circuits", &CircuitSpec{Program: []Op{{Op: "add", A: 0, B: 1}}}, http.StatusBadRequest},
		{"unknown op", "/circuits", &CircuitSpec{Program: []Op{{Op: "frobnicate"}}}, http.StatusBadRequest},
		{"jellyfish op on vanilla", "/circuits", &CircuitSpec{Program: []Op{{Op: "secret", K: 2}, {Op: "power5", A: 0}}}, http.StatusBadRequest},
		{"unsatisfied witness", "/circuits", &CircuitSpec{Program: []Op{
			{Op: "secret", K: 2}, {Op: "mul", A: 0, B: 0}, {Op: "assert_eq", A: 1, K: 5},
		}}, http.StatusBadRequest},
		{"verify needs a key source", "/verify", VerifyRequest{Proof: "AAAA"}, http.StatusBadRequest},
		{"verify bad proof bytes", "/verify", VerifyRequest{CircuitID: strings.Repeat("ab", 32), Proof: "AAAA"}, http.StatusNotFound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, raw := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, raw)
			}
			var e apiError
			if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
				t.Fatalf("expected a JSON error envelope, got %s", raw)
			}
		})
	}
}

// TestVerifyInlineKeyForLargerSRS: a proof and inline verifying key made
// over a larger SRS than the server's is a well-formed proof that fails
// verification — 200, valid:false, the sizes named — not a dropped
// connection.
func TestVerifyInlineKeyForLargerSRS(t *testing.T) {
	_, big := newTestServer(t, Config{Workers: 2})
	_, small := newTestServer(t, Config{SRS: zkphire.SetupDeterministic(4, 42), Workers: 2})
	spec := cubicSpec(5)
	spec.LogGates = 5
	resp, raw := postJSON(t, big.URL+"/circuits", spec)
	var reg RegisterResponse
	if err := json.Unmarshal(raw, &reg); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, big.URL+"/prove", ProveRequest{CircuitID: reg.CircuitID})
	var pr ProveResponse
	if err := json.Unmarshal(raw, &pr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("prove: %d %s", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, small.URL+"/verify", VerifyRequest{VerifyingKey: reg.VerifyingKey, Proof: pr.Proof})
	var vr VerifyResponse
	if err := json.Unmarshal(raw, &vr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || vr.Valid || !strings.Contains(vr.Reason, "SRS supports 4 vars") {
		t.Fatalf("verify on a 4-variable SRS: status %d valid %v reason %q, want 200, invalid, the size named", resp.StatusCode, vr.Valid, vr.Reason)
	}
}

func TestServerJellyfishCircuit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// y = x⁵ with x = 2 → 32, in a single Jellyfish gate.
	spec := &CircuitSpec{
		Arithmetization: "jellyfish",
		Program: []Op{
			{Op: "secret", K: 2},
			{Op: "power5", A: 0},
			{Op: "assert_eq", A: 1, K: 32},
		},
	}
	resp, raw := postJSON(t, ts.URL+"/circuits", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %s", raw)
	}
	var reg RegisterResponse
	if err := json.Unmarshal(raw, &reg); err != nil {
		t.Fatal(err)
	}
	if reg.Arithmetization != "jellyfish" {
		t.Fatalf("arithmetization %q", reg.Arithmetization)
	}
	resp, raw = postJSON(t, ts.URL+"/prove", ProveRequest{CircuitID: reg.CircuitID})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prove: %s", raw)
	}
	var pr ProveResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	resp, raw = postJSON(t, ts.URL+"/verify", VerifyRequest{CircuitID: reg.CircuitID, Proof: pr.Proof})
	var vr VerifyResponse
	if err := json.Unmarshal(raw, &vr); err != nil {
		t.Fatal(err)
	}
	if !vr.Valid {
		t.Fatalf("jellyfish proof rejected: %s", vr.Reason)
	}
}

func TestServerHealthAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "ok" {
		t.Fatalf("health status %q", h.Status)
	}

	// Drive one registration + proof so the counters move.
	_, raw := postJSON(t, ts.URL+"/circuits", cubicSpec(5))
	var reg RegisterResponse
	if err := json.Unmarshal(raw, &reg); err != nil {
		t.Fatal(err)
	}
	if _, raw = postJSON(t, ts.URL+"/prove", ProveRequest{CircuitID: reg.CircuitID}); len(raw) == 0 {
		t.Fatal("empty prove response")
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"zkphired_preprocess_total 1",
		"zkphired_proofs_total 1",
		"zkphired_cache_entries 1",
		"zkphired_proof_latency_seconds_count 1",
		"zkphired_queue_depth 0",
		"zkphired_worker_budget",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n%s", want, text)
		}
	}
}
