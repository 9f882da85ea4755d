// Package retry is the failure-handling policy layer shared by the
// zkphired service and its clients: exponential backoff with jitter,
// a transient/permanent error classification, and an HTTP JSON client
// helper that honours Retry-After.
//
// Server side, the job queue wraps each prove attempt in Do so transient
// failures — spill I/O hiccups, offloaded-SRS read errors, injected
// faults — are retried a bounded number of times before the job fails for
// real; panics and context cancellations are never retried. Client side,
// PostJSON retries admission-control rejections (429/503) after the
// server-suggested delay, which is how examples/serving rides out a
// saturated prover. See DESIGN.md §9.
package retry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"
)

// Policy shapes a retry loop. The zero value is usable: 3 attempts,
// 10 ms base delay doubling to a 2 s cap, and no jitter (Jitter 0; a
// negative Jitter means 20%).
type Policy struct {
	// MaxAttempts is the total number of tries (first attempt included);
	// <= 0 means 3. 1 disables retries.
	MaxAttempts int
	// BaseDelay is the sleep after the first failure (<= 0 means 10 ms).
	BaseDelay time.Duration
	// MaxDelay caps the grown delay (<= 0 means 2 s).
	MaxDelay time.Duration
	// Jitter is the random fraction added to each delay, in [0, 1]
	// (negative means 0.2): delay × (1 + Jitter·U[0,1)). Jitter breaks
	// retry synchronization between jobs that failed together.
	Jitter float64
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Jitter < 0 {
		p.Jitter = 0.2
	}
	return p
}

// Delay returns the backoff before retry number retry (1 = the sleep
// between the first failure and the second attempt), jitter included.
func (p Policy) Delay(retry int) time.Duration {
	p = p.withDefaults()
	d := float64(p.BaseDelay)
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= float64(p.MaxDelay) {
			break
		}
	}
	if d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		d *= 1 + p.Jitter*rand.Float64()
	}
	return time.Duration(d)
}

// Transienter marks an error as worth retrying. internal/faultinject's
// injected errors implement it, as does the Transient wrapper here.
type Transienter interface{ Transient() bool }

type transientErr struct{ err error }

func (e *transientErr) Error() string   { return e.err.Error() }
func (e *transientErr) Unwrap() error   { return e.err }
func (e *transientErr) Transient() bool { return true }

// Transient wraps err so IsTransient reports true for it (nil stays nil).
// I/O layers use it to mark failures that a fresh attempt can outlive.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientErr{err: err}
}

// IsTransient reports whether err is retryable: some error in its chain
// implements Transienter with Transient() == true. Context cancellation
// and deadline errors are never transient, whatever the chain says — the
// caller has given up or run out of time.
func IsTransient(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var t Transienter
	return errors.As(err, &t) && t.Transient()
}

// Do runs op up to p.MaxAttempts times, sleeping the policy's backoff
// between attempts. It stops — returning op's error — as soon as op
// succeeds, fails non-transiently, or ctx ends (sleeps are interrupted).
// The returned error is op's own error, not a wrapper, so errors.Is
// classification at the service boundary keeps working.
func Do(ctx context.Context, p Policy, op func(ctx context.Context) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	p = p.withDefaults()
	var err error
	for attempt := 1; ; attempt++ {
		err = op(ctx)
		if err == nil || !IsTransient(err) || attempt >= p.MaxAttempts {
			return err
		}
		t := time.NewTimer(p.Delay(attempt))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}

// StatusError is the non-2xx terminal result of PostJSON: the final
// response's status and body, after retries are exhausted or for a
// non-retryable status.
type StatusError struct {
	StatusCode int
	Body       string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("http %d: %s", e.StatusCode, e.Body)
}

// retryableStatus reports the statuses a client may safely retry: the
// service's admission-control and drain rejections plus gateway-class
// errors. The zkphired API's POSTs are idempotent (registration by
// content hash; proving by idempotency key), so retrying is safe.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable,
		http.StatusBadGateway, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// PostJSON posts in as JSON to url and decodes the 2xx response into out
// (out may be nil to discard). Transport errors and retryable statuses
// (429, 502, 503, 504) are retried under p; when the response carries a
// Retry-After header with a second count, that delay is used instead of
// the backoff (still capped by p.MaxDelay). A nil client uses
// http.DefaultClient.
func PostJSON(ctx context.Context, client *http.Client, url string, in, out any, p Policy) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("retry: marshal request: %w", err)
	}
	return doJSON(ctx, client, http.MethodPost, url, body, out, p)
}

// GetJSON fetches url and decodes the 2xx JSON response into out (out may
// be nil to discard), with the same retry/Retry-After discipline as
// PostJSON. The cluster worker agent uses it to replicate circuit specs
// from the coordinator by content hash — a safe retry because GETs of
// content-addressed state are idempotent by construction.
func GetJSON(ctx context.Context, client *http.Client, url string, out any, p Policy) error {
	return doJSON(ctx, client, http.MethodGet, url, nil, out, p)
}

// doJSON is the shared retry loop behind PostJSON and GetJSON.
func doJSON(ctx context.Context, client *http.Client, method, url string, body []byte, out any, p Policy) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if client == nil {
		client = http.DefaultClient
	}
	p = p.withDefaults()

	var last error
	for attempt := 1; ; attempt++ {
		status, retryAfter, raw, err := doOnce(ctx, client, method, url, body)
		switch {
		case err != nil:
			last = Transient(err)
		case status/100 == 2:
			if out == nil {
				return nil
			}
			if err := json.Unmarshal(raw, out); err != nil {
				return fmt.Errorf("retry: decode response: %w", err)
			}
			return nil
		default:
			last = &StatusError{StatusCode: status, Body: string(raw)}
			if !retryableStatus(status) {
				return last
			}
		}
		if attempt >= p.MaxAttempts || ctx.Err() != nil {
			return last
		}
		delay := p.Delay(attempt)
		if retryAfter > 0 {
			delay = retryAfter
			if delay > p.MaxDelay {
				delay = p.MaxDelay
			}
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return last
		}
	}
}

// doOnce performs one request, returning the status, any Retry-After
// delay, and the response body. A nil body sends no payload (GET).
func doOnce(ctx context.Context, client *http.Client, method, url string, body []byte) (status int, retryAfter time.Duration, raw []byte, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, 0, nil, err
	}
	defer resp.Body.Close()
	raw, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, 0, nil, err
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, perr := strconv.Atoi(s); perr == nil && secs >= 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	return resp.StatusCode, retryAfter, raw, nil
}
