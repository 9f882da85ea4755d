package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"zkphire/internal/journal"
)

// TestCancelMidProof: a client that disconnects while its proof is
// running reads nothing its proving goroutine is still writing (the -race
// leg is the assertion), every queue slot comes back, an unkeyed job is
// cancelled with its last waiter, and a keyed job runs on to settle Done
// so that a retry replays it.
func TestCancelMidProof(t *testing.T) {
	for _, key := range []string{"", "cancelled-key"} {
		name := "keyed"
		if key == "" {
			name = "unkeyed"
		}
		t.Run(name, func(t *testing.T) {
			jnl, err := journal.Open(filepath.Join(t.TempDir(), "jobs.journal"))
			if err != nil {
				t.Fatal(err)
			}
			defer jnl.Close()
			jnl.SetSync(false)
			s, ts := newTestServer(t, Config{Workers: 2, MaxInflight: 1, Journal: jnl})

			// Padded to the SRS's largest size so the proof is long enough to
			// be cancelled in the middle.
			spec := cubicSpec(5)
			spec.LogGates = 7
			resp, raw := postJSON(t, ts.URL+"/circuits", spec)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("register: %d %s", resp.StatusCode, raw)
			}
			var reg RegisterResponse
			if err := json.Unmarshal(raw, &reg); err != nil {
				t.Fatal(err)
			}

			ctx, cancel := context.WithCancel(context.Background())
			body := mustMarshal(t, ProveRequest{CircuitID: reg.CircuitID, IdempotencyKey: key})
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/prove", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			gone := make(chan struct{})
			go func() {
				defer close(gone)
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
			}()
			waitUntil(t, "the job to take the slot", func() bool { return s.local.queue.Running() == 1 })
			cancel()
			<-gone

			if key == "" {
				waitUntil(t, "the abandoned job to be cancelled", func() bool { return s.Unsettled() == 0 })
			} else {
				waitUntil(t, "the abandoned keyed job to settle", func() bool {
					rec, ok := jnl.Lookup(key)
					return ok && rec.State == journal.StateDone && s.Unsettled() == 0
				})
				resp, pr, raw := proveOnce(t, ts.URL, ProveRequest{CircuitID: reg.CircuitID, IdempotencyKey: key})
				if resp.StatusCode != http.StatusOK || !pr.Replayed || pr.Proof == "" {
					t.Fatalf("retry of the abandoned key = %d replayed=%v: %s", resp.StatusCode, pr.Replayed, raw)
				}
			}
			waitUntil(t, "the slot to free", func() bool { return s.local.queue.Running() == 0 })
			s.mu.Lock()
			n := len(s.jobs)
			s.mu.Unlock()
			if n != 0 {
				t.Fatalf("%d settled jobs left in the front-end's table", n)
			}
		})
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
