package retry

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"zkphire/internal/faultinject"
)

func TestDelayGrowsAndCaps(t *testing.T) {
	p := Policy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := p.Delay(i + 1); got != w*time.Millisecond {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestJitterStaysInBand(t *testing.T) {
	p := Policy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second, Jitter: 0.5}
	for i := 0; i < 64; i++ {
		d := p.Delay(1)
		if d < 100*time.Millisecond || d >= 150*time.Millisecond {
			t.Fatalf("jittered delay %v outside [100ms, 150ms)", d)
		}
	}
}

func TestIsTransient(t *testing.T) {
	if IsTransient(nil) {
		t.Error("nil is transient")
	}
	if IsTransient(errors.New("plain")) {
		t.Error("plain error is transient")
	}
	if !IsTransient(Transient(errors.New("io wobble"))) {
		t.Error("marked error is not transient")
	}
	if !IsTransient(fmt.Errorf("wrapped: %w", Transient(errors.New("x")))) {
		t.Error("wrapping hides the transient mark")
	}
	if IsTransient(context.Canceled) || IsTransient(fmt.Errorf("op: %w", context.DeadlineExceeded)) {
		t.Error("context errors must never be transient")
	}
	// Injected faults classify as transient without a retry import in
	// faultinject: the Transienter interface is the contract.
	faultinject.Reset()
	faultinject.Arm("t", faultinject.Fault{Mode: faultinject.ModeError})
	defer faultinject.Reset()
	if !IsTransient(faultinject.Hit("t")) {
		t.Error("injected fault is not transient")
	}
}

func TestDoRetriesTransientOnly(t *testing.T) {
	fast := Policy{MaxAttempts: 4, BaseDelay: time.Microsecond, Jitter: 0}

	calls := 0
	err := Do(context.Background(), fast, func(context.Context) error {
		calls++
		if calls < 3 {
			return Transient(errors.New("wobble"))
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("transient retry: err=%v calls=%d, want nil/3", err, calls)
	}

	calls = 0
	permanent := errors.New("permanent")
	if err := Do(context.Background(), fast, func(context.Context) error { calls++; return permanent }); !errors.Is(err, permanent) || calls != 1 {
		t.Fatalf("permanent error retried: err=%v calls=%d", err, calls)
	}

	calls = 0
	wobble := Transient(errors.New("always"))
	if err := Do(context.Background(), fast, func(context.Context) error { calls++; return wobble }); !errors.Is(err, wobble) || calls != 4 {
		t.Fatalf("exhaustion: err=%v calls=%d, want wobble/4", err, calls)
	}
}

func TestDoStopsOnContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Do(ctx, Policy{MaxAttempts: 10, BaseDelay: time.Hour, Jitter: 0}, func(context.Context) error {
		calls++
		cancel()
		return Transient(errors.New("wobble"))
	})
	if !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("ctx cancel mid-backoff: err=%v calls=%d", err, calls)
	}
}

func TestPostJSONRetriesWithRetryAfter(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) < 3 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"saturated"}`)
			return
		}
		fmt.Fprint(w, `{"ok":true}`)
	}))
	defer srv.Close()

	var out struct {
		OK bool `json:"ok"`
	}
	p := Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, Jitter: 0}
	if err := PostJSON(context.Background(), srv.Client(), srv.URL, map[string]int{"x": 1}, &out, p); err != nil {
		t.Fatal(err)
	}
	if !out.OK || hits.Load() != 3 {
		t.Fatalf("ok=%v hits=%d, want true/3", out.OK, hits.Load())
	}
}

func TestPostJSONDoesNotRetryClientErrors(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "bad request", http.StatusBadRequest)
	}))
	defer srv.Close()

	err := PostJSON(context.Background(), srv.Client(), srv.URL, map[string]int{}, nil,
		Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, Jitter: 0})
	var se *StatusError
	if !errors.As(err, &se) || se.StatusCode != http.StatusBadRequest {
		t.Fatalf("err = %v, want StatusError 400", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("400 retried %d times", hits.Load())
	}
}

func TestPostJSONExhaustionReturnsLastStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer srv.Close()

	err := PostJSON(context.Background(), srv.Client(), srv.URL, map[string]int{}, nil,
		Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, Jitter: 0})
	var se *StatusError
	if !errors.As(err, &se) || se.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want StatusError 503", err)
	}
}

func TestGetJSONRetriesAndSendsNoBody(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			t.Errorf("method = %s, want GET", r.Method)
		}
		if r.ContentLength != 0 {
			t.Errorf("GET carried a %d-byte body", r.ContentLength)
		}
		if ct := r.Header.Get("Content-Type"); ct != "" {
			t.Errorf("GET carried Content-Type %q", ct)
		}
		if hits.Add(1) < 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"spec":"abc"}`)
	}))
	defer srv.Close()

	var out struct {
		Spec string `json:"spec"`
	}
	p := Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Jitter: 0}
	if err := GetJSON(context.Background(), srv.Client(), srv.URL, &out, p); err != nil {
		t.Fatal(err)
	}
	if out.Spec != "abc" || hits.Load() != 2 {
		t.Fatalf("spec=%q hits=%d, want abc/2", out.Spec, hits.Load())
	}
}
