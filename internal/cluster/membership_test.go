package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"zkphire/internal/service"
)

// TestConcurrentAcceptsSpreadAcrossIdleWorkers fires N proofs at once at a
// coordinator with N idle single-slot workers and requires one lease on
// each. Placement used to read a worker's load when picking but raise it
// only after the dispatch RPC returned, so jobs accepted together all saw
// the same idle worker as least loaded and queued behind each other on it
// while the rest of the pool idled.
func TestConcurrentAcceptsSpreadAcrossIdleWorkers(t *testing.T) {
	const n = 8
	c, ts := newCoordinator(t, Config{
		EvictAfter:   time.Minute,
		LeaseTimeout: time.Minute,
	})
	workers := make([]*blackholeWorker, n)
	for i := range workers {
		workers[i] = newBlackhole(t, ts.URL, false)
	}
	id := registerViaStore(t, c, 5)

	// The blackholes never complete, so the requests never answer: abandon
	// them once the placements are in.
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	body, _ := json.Marshal(service.ProveRequest{CircuitID: id})
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/prove", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/json")
			<-start
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}()
	}
	close(start)

	waitFor(t, "all dispatches", func() bool {
		got := 0
		for _, b := range workers {
			got += len(b.dispatches)
		}
		return got >= n
	})
	for _, b := range workers {
		if got := len(b.dispatches); got != 1 {
			t.Errorf("worker %s holds %d leases, want exactly 1 of the %d concurrent jobs", b.id, got, n)
		}
	}
}

// TestPickReservesAndBreaksTiesByJoinOrder pins pick's contract directly:
// among equally loaded members the earliest joined wins (w2 before w10, and
// never Go's map order), a pick holds its slot until released, and a
// saturated table yields nil.
func TestPickReservesAndBreaksTiesByJoinOrder(t *testing.T) {
	tab := newMemberTable()
	now := time.Now()
	for i := 0; i < 12; i++ {
		tab.join("http://unused", 1, now)
	}
	var picked []*member
	for i := 1; i <= 12; i++ {
		m := tab.pick(nil)
		if m == nil || m.seq != uint64(i) {
			t.Fatalf("pick %d on an idle pool = %+v, want w%d", i, m, i)
		}
		picked = append(picked, m)
	}
	if m := tab.pick(nil); m != nil {
		t.Fatalf("pick on a saturated pool = %s, want nil", m.id)
	}
	picked[9].release()
	picked[1].release()
	picked[1].release() // a duplicate release must not over-admit
	if m := tab.pick(map[string]bool{"w2": true}); m == nil || m.id != "w10" {
		t.Fatalf("pick excluding w2 = %+v, want w10", m)
	}
	if m := tab.pick(nil); m == nil || m.id != "w2" {
		t.Fatalf("pick = %+v, want w2", m)
	}
	if m := tab.pick(nil); m != nil {
		t.Fatalf("pick after refilling = %s, want nil", m.id)
	}
}

// TestWorkerJoinsWithItsSlotCount: a worker's placement capacity is the
// number of proofs its service runs at once, not its worker budget. A
// four-worker service with one in-flight slot would otherwise take four
// leases and queue three of them with their lease clocks running.
func TestWorkerJoinsWithItsSlotCount(t *testing.T) {
	c, ts := newCoordinator(t, Config{})
	svc, err := service.New(service.Config{SRS: testSRS, Workers: 4, MaxInflight: 1})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerConfig{Service: svc, CoordinatorURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	wts := httptest.NewServer(w.Handler())
	w.SetAdvertiseURL(wts.URL)
	if err := w.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.Close()
		wts.Close()
		svc.Close()
	})
	m, ok := c.pool.members.get(w.ID(), w.AdvertiseURL())
	if !ok {
		t.Fatalf("worker %q is not in the member table", w.ID())
	}
	if got := m.capacity(); got != 1 {
		t.Fatalf("capacity of a Workers: 4, MaxInflight: 1 worker = %d, want 1", got)
	}
}

// TestReusedWorkerIDMakesTheOldHolderRejoin: worker IDs restart at w1
// with every coordinator process. After a restart on the same address a
// newcomer can join first and take w1; the worker that held w1 before
// must then have its beats refused and rejoin under a fresh ID, instead
// of keeping the newcomer's entry alive while it stays out of the pool.
func TestReusedWorkerIDMakesTheOldHolderRejoin(t *testing.T) {
	cfg := Config{SRS: testSRS, HeartbeatInterval: 50 * time.Millisecond, EvictAfter: 10 * time.Second}
	serve := func(addr string) (*Coordinator, *httptest.Server) {
		l, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewUnstartedServer(c.Handler())
		ts.Listener.Close()
		ts.Listener = l
		ts.Start()
		return c, ts
	}
	c1, ts1 := serve("127.0.0.1:0")
	a, _ := newWorker(t, ts1.URL)
	if a.ID() != "w1" {
		t.Fatalf("first joiner is %q, want w1", a.ID())
	}
	c1.Close()
	ts1.Close()

	c2, ts2 := serve(ts1.Listener.Addr().String())
	t.Cleanup(func() {
		c2.Close()
		ts2.Close()
	})
	resp, raw := postJSON(t, ts2.URL+"/cluster/join", JoinRequest{Addr: "http://127.0.0.1:1", Slots: 1})
	var jr JoinResponse
	if err := json.Unmarshal(raw, &jr); err != nil || resp.StatusCode != http.StatusOK || jr.WorkerID != "w1" {
		t.Fatalf("newcomer join = %d %s, want 200 and w1", resp.StatusCode, raw)
	}
	waitFor(t, "the old w1 to rejoin", func() bool { return c2.WorkersLive() == 2 && a.ID() != "w1" })
	for _, m := range c2.pool.members.snapshot() {
		if (m.id == "w1") != (m.addr == "http://127.0.0.1:1") {
			t.Fatalf("member %s is at %s; w1 must stay the newcomer's", m.id, m.addr)
		}
	}
}
