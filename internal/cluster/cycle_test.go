package cluster

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"zkphire/internal/journal"
	"zkphire/internal/service"
)

// TestClusterCycleBackToBaseline is the cluster half of the cycling test:
// a coordinator with a journal over two two-slot workers is pushed far
// past its capacity, round after round, while a worker restart, a
// coordinator restart on the same address and journal, and a journal
// compaction take turns mid-batch. After every round it checks for drift
// against the post-warm-up baseline:
//
//   - goroutines: at most goroutineSlack above, at the quietest of a few
//     samples (a heartbeat in flight holds a connection's goroutines); an
//     attempt that outlives its job is one goroutine per slot it held, so
//     a leak grows by up to 4 with every coordinator restart;
//   - WorkersLive: exactly 2;
//   - the front-end's Unsettled: exactly 0;
//   - compacted journal bytes: exactly one settled record per key added
//     since — no pending record, no circuit record, nothing else;
//   - heap in use: at most heapSlack above, after a GC.
func TestClusterCycleBackToBaseline(t *testing.T) {
	const (
		rounds         = 6
		clients        = 8
		perClient      = 2
		jobsPerRound   = clients * perClient
		goroutineSlack = 2
		heapSlack      = 8 << 20
	)
	golden := base64.StdEncoding.EncodeToString(goldenProof(t, 5))
	dir := t.TempDir()
	jpath := filepath.Join(dir, "cycle.journal")
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	coordURL := "http://" + addr

	// The coordinator in the daemon's boot order: open the journal, build,
	// recover, compact, then serve.
	var (
		jnl   *journal.Journal
		coord *Coordinator
		cts   *httptest.Server
	)
	startCoordinator := func(l net.Listener) {
		t.Helper()
		if jnl, err = journal.Open(jpath); err != nil {
			t.Fatal(err)
		}
		jnl.SetSync(false)
		if coord, err = New(Config{SRS: testSRS, Journal: jnl, HeartbeatInterval: 200 * time.Millisecond, EvictAfter: 2 * time.Second}); err != nil {
			t.Fatal(err)
		}
		if _, err := coord.StartRecovery(); err != nil {
			t.Fatal(err)
		}
		if err := jnl.Compact(); err != nil {
			t.Fatal(err)
		}
		cts = httptest.NewUnstartedServer(coord.Handler())
		cts.Listener.Close()
		cts.Listener = l
		cts.Start()
	}
	stopCoordinator := func() {
		coord.Close()
		cts.Close()
		if err := jnl.Close(); err != nil {
			t.Fatal(err)
		}
	}
	type node struct {
		w   *Worker
		ts  *httptest.Server
		svc *service.Server
	}
	startWorker := func() node {
		t.Helper()
		svc, err := service.New(service.Config{SRS: testSRS, Workers: 2, MaxInflight: 2})
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorker(WorkerConfig{Service: svc, CoordinatorURL: coordURL})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(w.Handler())
		w.SetAdvertiseURL(ts.URL)
		if err := w.Start(t.Context()); err != nil {
			t.Fatal(err)
		}
		return node{w, ts, svc}
	}
	stop := func(n node) {
		n.w.Close()
		n.ts.Close()
		n.svc.Close()
	}

	startCoordinator(l)
	workers := []node{startWorker(), startWorker()}
	defer func() {
		for _, n := range workers {
			stop(n)
		}
		stopCoordinator()
	}()
	waitFor(t, "two workers", func() bool { return coord.WorkersLive() == 2 })

	// proveKey retries its key through anything — a coordinator mid-restart
	// refuses connections or answers 503 — because the key makes it safe.
	client := &http.Client{Timeout: 30 * time.Second}
	var circuitID string
	proveKey := func(key string) error {
		body, _ := json.Marshal(service.ProveRequest{CircuitID: circuitID, IdempotencyKey: key})
		deadline := time.Now().Add(30 * time.Second)
		last := "no response"
		for time.Now().Before(deadline) {
			resp, err := client.Post(coordURL+"/prove", "application/json", bytes.NewReader(body))
			if err != nil {
				last = err.Error()
				time.Sleep(20 * time.Millisecond)
				continue
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				last = fmt.Sprintf("%d %s", resp.StatusCode, bytes.TrimSpace(raw))
				time.Sleep(20 * time.Millisecond)
				continue
			}
			var pr service.ProveResponse
			if err := json.Unmarshal(raw, &pr); err != nil {
				return fmt.Errorf("%s: %v", key, err)
			}
			if pr.Proof != golden {
				return fmt.Errorf("%s: proof differs from the single-node golden run", key)
			}
			return nil
		}
		return fmt.Errorf("%s: no proof in 30 s (last: %s)", key, last)
	}
	key := func(round, i int) string { return fmt.Sprintf("cycle-%02d-%03d", round, i) }

	// Warm-up: register, settle one keyed job, and take every baseline.
	circuitID = registerCubic(t, coordURL, 5)
	if err := proveKey(key(0, 0)); err != nil {
		t.Fatal(err)
	}
	compacted := func(j *journal.Journal) int64 {
		t.Helper()
		if err := j.Compact(); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(j.Path())
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	empty, err := journal.Open(filepath.Join(dir, "empty.journal"))
	if err != nil {
		t.Fatal(err)
	}
	header := compacted(empty)
	empty.Close()
	baseBytes := compacted(jnl)
	perKey := baseBytes - header
	heapInUse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	// goroutines counts with idle connections closed; a heartbeat in
	// flight still holds one, so callers take the least of a few samples.
	goroutines := func() int {
		http.DefaultClient.CloseIdleConnections()
		client.CloseIdleConnections()
		time.Sleep(20 * time.Millisecond)
		return runtime.NumGoroutine()
	}
	baseGoroutines, baseHeap := goroutines(), heapInUse()
	for i := 0; i < 10; i++ {
		baseGoroutines = min(baseGoroutines, goroutines())
	}

	for round := 1; round <= rounds; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, jobsPerRound)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perClient; i++ {
					if err := proveKey(key(round, c*perClient+i)); err != nil {
						errs <- err
					}
				}
			}()
		}
		// Mid-batch, with the slots full and a backlog waiting.
		waitFor(t, "a backlog", func() bool { return coord.Unsettled() > 4 })
		switch round % 3 {
		case 1:
			stop(workers[0])
			workers[0] = startWorker()
		case 2:
			stopCoordinator()
			l, err := net.Listen("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			startCoordinator(l)
		case 0:
			if err := jnl.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if t.Failed() {
			t.FailNow()
		}

		if n := coord.Unsettled(); n != 0 {
			t.Fatalf("round %d: front-end holds %d unsettled jobs", round, n)
		}
		waitFor(t, "two workers", func() bool { return coord.WorkersLive() == 2 })
		if got, want := compacted(jnl), baseBytes+int64(round*jobsPerRound)*perKey; got != want {
			t.Fatalf("round %d: compacted journal is %d bytes, want %d (%d per settled key)", round, got, want, perKey)
		}
		deadline := time.Now().Add(10 * time.Second)
		for n := goroutines(); n > baseGoroutines+goroutineSlack; n = goroutines() {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("round %d: %d goroutines, %d after warm-up\n%s",
					round, n, baseGoroutines, buf[:runtime.Stack(buf, true)])
			}
		}
		if heap := heapInUse(); heap > baseHeap+heapSlack {
			t.Fatalf("round %d: %d B of heap in use, %d after warm-up", round, heap, baseHeap)
		}
		t.Logf("round %d: %d goroutines (baseline %d), heap %d KiB (baseline %d KiB)",
			round, runtime.NumGoroutine(), baseGoroutines, heapInUse()>>10, baseHeap>>10)
	}
}
