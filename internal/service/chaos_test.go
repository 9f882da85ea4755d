package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"zkphire/internal/faultinject"
	"zkphire/internal/journal"
)

// TestChaosInProcess is the in-process half of the chaos harness: each
// round seeds the fault RNG, arms a random subset of error/panic faults
// across the journal and the job boundary, hammers the daemon with
// concurrent keyed and unkeyed proves, and then checks the surviving
// invariants — every queue slot handed back, no stuck goroutines, and
// a clean prove that still produces the golden bytes.
func TestChaosInProcess(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}

	jnl, err := journal.Open(filepath.Join(t.TempDir(), "jobs.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8, Journal: jnl})
	id := registerCubic(t, ts.URL, 5)

	resp, golden, raw := proveOnce(t, ts.URL, ProveRequest{CircuitID: id})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("golden prove = %d: %s", resp.StatusCode, raw)
	}
	http.DefaultClient.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		faultinject.Reset()
		faultinject.Seed(seed)
		// Arm a random subset of the in-process faults. Crash mode is the
		// re-exec test's job; here everything must be survivable.
		if rng.Intn(2) == 0 {
			mode := faultinject.ModeError
			if rng.Intn(2) == 0 {
				mode = faultinject.ModePanic
			}
			faultinject.Arm("queue.job", faultinject.Fault{Mode: mode, Prob: 0.5})
		}
		if rng.Intn(2) == 0 {
			faultinject.Arm("journal.append", faultinject.Fault{Mode: faultinject.ModeError, Prob: 0.3})
		}
		if rng.Intn(2) == 0 {
			faultinject.Arm("journal.torn", faultinject.Fault{Mode: faultinject.ModeError, Prob: 0.3})
		}
		if rng.Intn(2) == 0 {
			faultinject.Arm("journal.sync", faultinject.Fault{Mode: faultinject.ModeError, Prob: 0.3})
		}

		var wg sync.WaitGroup
		for i := 0; i < 6; i++ {
			wg.Add(1)
			req := ProveRequest{CircuitID: id}
			if i%2 == 0 {
				req.IdempotencyKey = fmt.Sprintf("chaos-%d-%d", seed, i)
			}
			go func() {
				defer wg.Done()
				// Any status is legal under fire; the invariants below are
				// what must hold.
				resp, err := http.Post(ts.URL+"/prove", "application/json", bytes.NewReader(mustMarshal(t, req)))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}()
		}
		wg.Wait()
		faultinject.Reset()

		if n := s.local.queue.Running(); n != 0 {
			t.Fatalf("seed %d: %d slots leaked", seed, n)
		}
		resp, pr, raw := proveOnce(t, ts.URL, ProveRequest{CircuitID: id})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: clean prove after chaos = %d: %s", seed, resp.StatusCode, raw)
		}
		if pr.Proof != golden.Proof {
			t.Fatalf("seed %d: proof after chaos differs from the golden bytes", seed)
		}
	}

	// No stuck goroutines: once idle connections are torn down the count
	// returns to (near) the pre-chaos baseline.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+8 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines stuck after chaos: %d, baseline %d\n%s",
				n, baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestChaosChild is not a test of its own: TestChaosCrashReplayConformance
// re-execs the test binary with this filter, arms crash faults from the
// environment, and lets the child die mid-prove (exit 137, no unwinding).
func TestChaosChild(t *testing.T) {
	if os.Getenv("ZKPHIRE_CHAOS_CHILD") != "1" {
		t.Skip("chaos re-exec child; driven by TestChaosCrashReplayConformance")
	}
	if err := faultinject.ArmFromEnv(); err != nil {
		t.Fatal(err)
	}
	jnl, err := journal.Open(os.Getenv("ZKPHIRE_CHAOS_JOURNAL"))
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	s, err := New(Config{SRS: testSRS, Workers: 2, Journal: jnl})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	id := registerCubic(t, ts.URL, 5)
	resp, _, raw := proveOnce(t, ts.URL, ProveRequest{CircuitID: id, IdempotencyKey: "chaos-job"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("child prove = %d: %s", resp.StatusCode, raw)
	}
}

// TestChaosCrashReplayConformance is the crash half of the chaos harness:
// a child daemon process is killed without unwinding at randomized
// journal/queue fault points, and whatever it leaves on disk must (a)
// reopen without ErrCorrupt, (b) recover to zero pending jobs, and (c) —
// whenever the accept outlived the crash — replay to a proof
// byte-identical to an uninterrupted run's.
func TestChaosCrashReplayConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("re-execs the test binary")
	}

	// Golden run: the uninterrupted proof, verified through the API so
	// byte-equality below implies validity.
	_, ts := newTestServer(t, Config{Workers: 2})
	id := registerCubic(t, ts.URL, 5)
	resp, golden, raw := proveOnce(t, ts.URL, ProveRequest{CircuitID: id})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("golden prove = %d: %s", resp.StatusCode, raw)
	}
	vresp, vraw := postJSON(t, ts.URL+"/verify", VerifyRequest{CircuitID: id, Proof: golden.Proof})
	if vresp.StatusCode != http.StatusOK {
		t.Fatalf("golden verify = %d: %s", vresp.StatusCode, vraw)
	}
	goldenBytes, err := base64.StdEncoding.DecodeString(golden.Proof)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		faults string
		seed   int64
	}{
		// Deterministic: the job is accepted, then the process dies at the
		// job boundary — the canonical replay case.
		{"crash-at-job-start", "queue.job:crash", 0},
		// Deterministic: death mid-frame on the very first append — the
		// torn tail Open must cut.
		{"torn-first-append", "journal.torn:crash", 0},
		// Randomized: the seed decides which append (circuit, accept,
		// complete — or none) the crash lands on.
		{"random-append-a", "journal.append:crash:0.5", 1},
		{"random-append-b", "journal.append:crash:0.5", 7},
		{"random-torn", "journal.torn:crash:0.5", 11},
		{"random-sync", "journal.sync:crash:0.4", 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jpath := filepath.Join(t.TempDir(), "jobs.journal")
			cmd := exec.Command(os.Args[0], "-test.run=^TestChaosChild$", "-test.v")
			cmd.Env = append(os.Environ(),
				"ZKPHIRE_CHAOS_CHILD=1",
				"ZKPHIRE_CHAOS_JOURNAL="+jpath,
				faultinject.EnvVar+"="+tc.faults,
				faultinject.EnvSeedVar+"="+strconv.FormatInt(tc.seed, 10),
			)
			out, err := cmd.CombinedOutput()
			completed := err == nil
			if err != nil {
				ee, ok := err.(*exec.ExitError)
				if !ok || ee.ExitCode() != faultinject.CrashExitCode {
					t.Fatalf("child died wrong (%v), want exit %d or success:\n%s",
						err, faultinject.CrashExitCode, out)
				}
			}

			// (a) Whatever the crash left behind reopens cleanly — a torn
			// tail is truncated, never reported as corruption.
			jnl, err := journal.Open(jpath)
			if err != nil {
				t.Fatalf("journal corrupt after crash: %v", err)
			}
			defer jnl.Close()
			jnl.SetSync(false)
			if tb := jnl.Stats().TruncatedBytes; tb > 0 {
				t.Logf("open truncated a %d-byte torn tail", tb)
			}

			// (b) Restart recovery drains the pending set.
			s2, err := New(Config{SRS: testSRS, Workers: 2, Journal: jnl})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			replayed, err := s2.RecoverJournal(nil)
			if err != nil {
				t.Fatalf("RecoverJournal: %v", err)
			}
			if p := jnl.Pending(); len(p) != 0 {
				t.Fatalf("%d jobs still pending after recovery: %+v", len(p), p)
			}
			if n := s2.local.queue.Running(); n != 0 {
				t.Fatalf("%d slots held after recovery", n)
			}

			// (c) An acknowledged or recovered job carries exactly the golden
			// bytes; a child that exited clean must have settled its job.
			rec, ok := jnl.Lookup("chaos-job")
			if completed && (!ok || rec.State != journal.StateDone) {
				t.Fatalf("child exited clean but job state = %+v (found %v)", rec, ok)
			}
			if ok && rec.State == journal.StateDone {
				if !bytes.Equal(rec.Proof, goldenBytes) {
					t.Fatal("proof after crash/replay differs from the uninterrupted run")
				}
			}
			t.Logf("child completed=%v replayed=%d journaled=%v", completed, replayed, ok)
		})
	}
}
