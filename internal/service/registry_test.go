package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"zkphire"
)

// testSRS is shared by the package's tests: generating the deterministic
// SRS once keeps the suite fast.
var testSRS = zkphire.SetupDeterministic(8, 42)

// cubicSpec returns the canonical test circuit — prove knowledge of x with
// x³ + x + k = target — as a wire-format spec. Varying k yields circuits
// with distinct content hashes.
func cubicSpec(k uint64) *CircuitSpec {
	return &CircuitSpec{
		Program: []Op{
			{Op: "secret", K: 3},          // w0 = x = 3
			{Op: "mul", A: 0, B: 0},       // w1 = x²
			{Op: "mul", A: 1, B: 0},       // w2 = x³
			{Op: "add", A: 2, B: 0},       // w3 = x³ + x
			{Op: "add_const", A: 3, K: k}, // w4 = x³ + x + k
			{Op: "assert_eq", A: 4, K: 30 + k},
		},
	}
}

func compileSpec(t *testing.T, spec *CircuitSpec) *zkphire.CompiledCircuit {
	t.Helper()
	compiled, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return compiled
}

func TestRegistrySingleFlight(t *testing.T) {
	m := &Metrics{}
	reg := NewRegistry(testSRS, NewQueue(2, 2, 0, m), 4, 0, m)
	compiled := compileSpec(t, cubicSpec(5))

	const clients = 8
	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		sess  [clients]*Session
		errs  [clients]error
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			sess[i], _, errs[i] = reg.Register(context.Background(), compiled)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if sess[i] != sess[0] {
			t.Fatalf("client %d got a different session instance", i)
		}
	}
	// However the clients interleaved, the circuit was preprocessed
	// exactly once; everyone else either hit the cache or shared the
	// in-flight preprocessing.
	if got := m.Preprocesses.Load(); got != 1 {
		t.Fatalf("Preprocesses = %d, want 1", got)
	}
	if hits, shared := m.CacheHits.Load(), m.SingleFlightShared.Load(); hits+shared != clients-1 {
		t.Fatalf("hits %d + shared %d = %d, want %d", hits, shared, hits+shared, clients-1)
	}
}

func TestRegistryHitAndDeterministicHash(t *testing.T) {
	m := &Metrics{}
	reg := NewRegistry(testSRS, NewQueue(1, 1, 0, m), 4, 0, m)

	s1, cached, err := reg.Register(context.Background(), compileSpec(t, cubicSpec(5)))
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("first registration reported cached")
	}
	// An independently compiled copy of the same program must map to the
	// same session — the content hash, not object identity, is the key.
	s2, cached, err := reg.Register(context.Background(), compileSpec(t, cubicSpec(5)))
	if err != nil {
		t.Fatal(err)
	}
	if !cached || s2 != s1 {
		t.Fatal("re-registration of an identical program missed the cache")
	}
	if m.Preprocesses.Load() != 1 || m.CacheHits.Load() != 1 {
		t.Fatalf("preprocesses %d hits %d, want 1 and 1", m.Preprocesses.Load(), m.CacheHits.Load())
	}
	// A different program is a different circuit.
	if _, cached, _ := reg.Register(context.Background(), compileSpec(t, cubicSpec(6))); cached {
		t.Fatal("distinct circuit reported cached")
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	m := &Metrics{}
	reg := NewRegistry(testSRS, NewQueue(1, 1, 0, m), 2, 0, m)

	a := compileSpec(t, cubicSpec(1))
	b := compileSpec(t, cubicSpec(2))
	c := compileSpec(t, cubicSpec(3))
	for _, compiled := range []*zkphire.CompiledCircuit{a, b, c} {
		if _, _, err := reg.Register(context.Background(), compiled); err != nil {
			t.Fatal(err)
		}
	}
	if reg.Len() != 2 {
		t.Fatalf("cache holds %d sessions, capacity 2", reg.Len())
	}
	if got := m.CacheEvictions.Load(); got != 1 {
		t.Fatalf("CacheEvictions = %d, want 1", got)
	}
	// The oldest session (a) was evicted; b and c remain.
	if _, ok := reg.Get(a.Hash()); ok {
		t.Fatal("evicted session still resolvable")
	}
	if _, ok := reg.Get(b.Hash()); !ok {
		t.Fatal("session b missing")
	}
	// Touching b makes c the eviction candidate.
	if _, _, err := reg.Register(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get(c.Hash()); ok {
		t.Fatal("expected c to be evicted after re-registering a with b recently used")
	}
}

func TestRegistryRejectsOversizedCircuit(t *testing.T) {
	m := &Metrics{}
	reg := NewRegistry(testSRS, NewQueue(1, 1, 0, m), 2, 0, m)
	spec := cubicSpec(5)
	spec.LogGates = testSRS.MaxVars // needs MaxVars+1 SRS variables
	compiled := compileSpec(t, spec)
	if _, _, err := reg.Register(context.Background(), compiled); err == nil {
		t.Fatal("expected registration to fail for a circuit exceeding the SRS")
	}
	// A failed flight must not poison the cache.
	if reg.Len() != 0 {
		t.Fatalf("failed registration left %d cache entries", reg.Len())
	}
}

func TestRegistryPreprocessLeaseTimeout(t *testing.T) {
	m := &Metrics{}
	q := NewQueue(1, 1, 0, m)
	reg := NewRegistry(testSRS, q, 2, 20*time.Millisecond, m)

	// Hold the only slot so the preprocessing leader cannot get one.
	if err := q.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, _, err := reg.Register(context.Background(), compileSpec(t, cubicSpec(5)))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Register on a saturated queue = %v, want DeadlineExceeded", err)
	}
	// The failed flight left nothing behind; freeing the slot lets the
	// same circuit register normally.
	q.release()
	if _, cached, err := reg.Register(context.Background(), compileSpec(t, cubicSpec(5))); err != nil || cached {
		t.Fatalf("post-timeout registration: cached=%v err=%v", cached, err)
	}
}

// TestRegistryWaitsForProofSlot: preprocessing and proving share the
// queue's slots, so a registration waits (and counts in the queue's
// depth) while a proof holds the only slot, then preprocesses once the
// proof hands it back.
func TestRegistryWaitsForProofSlot(t *testing.T) {
	m := &Metrics{}
	q := NewQueue(1, 1, 0, m)
	reg := NewRegistry(testSRS, q, 2, 0, m)

	release := make(chan struct{})
	run, started := blockingJob(release)
	proved := make(chan error, 1)
	go func() { proved <- q.Submit(context.Background(), run) }()
	<-started

	compiled := compileSpec(t, cubicSpec(5))
	registered := make(chan error, 1)
	go func() {
		_, _, err := reg.Register(context.Background(), compiled)
		registered <- err
	}()
	waitUntil(t, "the registration to wait for the slot", func() bool { return q.Depth() == 1 })
	select {
	case err := <-registered:
		t.Fatalf("registration finished (err %v) while a proof held the only slot", err)
	default:
	}
	if got := m.Preprocesses.Load(); got != 0 {
		t.Fatalf("Preprocesses = %d while the slot was held, want 0", got)
	}

	close(release)
	if err := <-proved; err != nil {
		t.Fatal(err)
	}
	if err := <-registered; err != nil {
		t.Fatalf("registration after the slot freed: %v", err)
	}
	if got := m.Preprocesses.Load(); got != 1 {
		t.Fatalf("Preprocesses = %d, want 1", got)
	}
	if n := q.Running(); n != 0 {
		t.Fatalf("%d slots held after both finished", n)
	}
}
