package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zkphire/internal/journal"
)

// TestCycleBackToBaseline cycles a small single node far past its
// capacity — one slot, a two-job waiting room, eight clients — with
// unkeyed, keyed, abandoned and ProveHex jobs, then checks for drift:
// goroutines, the queue's counts and the front-end's job table must all
// be back where the warm-up left them. A job that leaks an admission, a
// slot or a table entry on some path shows up as a residue here.
func TestCycleBackToBaseline(t *testing.T) {
	const clients, perClient = 8, 50

	jnl, err := journal.Open(filepath.Join(t.TempDir(), "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	jnl.SetSync(false)
	s, ts := newTestServer(t, Config{Workers: 2, MaxInflight: 1, QueueDepth: 2, Journal: jnl})
	id := registerCubic(t, ts.URL, 5)
	if resp, _, raw := proveOnce(t, ts.URL, ProveRequest{CircuitID: id}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up prove = %d: %s", resp.StatusCode, raw)
	}
	http.DefaultClient.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	var (
		wg       sync.WaitGroup
		ok, busy atomic.Int64
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				kind := i % 4
				if kind >= 2 {
					// Abandoned somewhere between admission and settlement.
					time.AfterFunc(time.Duration(rng.Intn(4000))*time.Microsecond, cancel)
				}
				var status int
				if kind == 3 {
					_, _, err := s.ProveHex(ctx, id, 0)
					var e *Error
					switch {
					case err == nil:
						status = http.StatusOK
					case errors.Is(err, ErrQueueFull):
						status = http.StatusTooManyRequests
					case errors.As(err, &e):
						status = e.Status
					case errors.Is(err, context.Canceled):
					default:
						t.Errorf("ProveHex: %v", err)
					}
				} else {
					req := ProveRequest{CircuitID: id}
					if kind == 1 {
						// Pairs share a key: the second attaches or replays.
						req.IdempotencyKey = fmt.Sprintf("cycle-%d-%d", c, i/8)
					}
					hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/prove", bytes.NewReader(mustMarshal(t, req)))
					if err != nil {
						t.Error(err)
					} else if resp, err := http.DefaultClient.Do(hreq); err == nil {
						status = resp.StatusCode
						resp.Body.Close()
					} else if ctx.Err() == nil {
						t.Errorf("POST /prove: %v", err)
					}
				}
				cancel()
				switch status {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusTooManyRequests:
					busy.Add(1)
					// Back off a little, as Retry-After asks, so the
					// cycle is mostly admitted jobs, not rejections.
					time.Sleep(time.Duration(5+rng.Intn(10)) * time.Millisecond)
				case 0, StatusClientClosedRequest:
				default:
					t.Errorf("client %d request %d (kind %d): status %d", c, i, kind, status)
				}
			}
		}()
	}
	wg.Wait()
	if ok.Load() == 0 || busy.Load() == 0 {
		t.Fatalf("%d proofs and %d 429s from %d requests; the cycle must both prove and overflow", ok.Load(), busy.Load(), clients*perClient)
	}
	t.Logf("%d requests: %d proofs, %d rejected", clients*perClient, ok.Load(), busy.Load())

	// Abandoned keyed jobs run on to settlement; wait for the last one.
	waitUntil(t, "every job to settle", func() bool { return s.Unsettled() == 0 })
	if r, d := s.local.queue.Running(), s.local.queue.Depth(); r != 0 || d != 0 {
		t.Fatalf("queue running %d, waiting %d; want 0 and 0", r, d)
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d jobs left in the front-end's table", n)
	}
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after the cycle, %d after warm-up\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
