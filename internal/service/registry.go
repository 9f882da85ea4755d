package service

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"time"

	"zkphire"
)

// Session is a cached proving session: the preprocessed prover plus the
// serialized verifying key and the circuit facts clients see in responses.
// It is immutable after construction and safe to share across requests.
type Session struct {
	Hash      zkphire.CircuitHash
	Prover    *zkphire.Prover
	VKBytes   []byte
	Kind      zkphire.Arithmetization
	LogGates  int
	GateCount int
}

// flight is one in-progress preprocessing run. Concurrent registrations of
// the same circuit park on done and share its result instead of each
// paying NewProver.
type flight struct {
	done chan struct{}
	sess *Session
	err  error
}

// Registry caches proving sessions by circuit content hash. It compiles
// nothing itself — callers hand it compiled circuits — but it owns the
// expensive step: preprocessing (selector + sigma commitments, plus warming
// the SRS GLV φ-tables the endomorphism MSMs run against) runs at most once
// per circuit, single-flighted across concurrent requests, and the
// resulting sessions live in an LRU of fixed capacity so a long-running
// service with heterogeneous circuits holds memory steady. The φ-tables
// live on the server's shared SRS, so they survive even LRU eviction and
// amortize across every circuit at the same size.
type Registry struct {
	srs   *zkphire.SRS
	queue *Queue // preprocessing runs hold one of its slots
	// leaseTimeout bounds how long a preprocessing run may wait for its
	// slot (0 = forever). Without it, a burst of distinct circuits
	// against a saturated queue would park handler goroutines
	// indefinitely.
	leaseTimeout time.Duration
	cap          int
	metrics      *Metrics

	mu      sync.Mutex
	entries map[zkphire.CircuitHash]*list.Element // -> lru element holding *Session
	lru     *list.List                            // front = most recently used
	flights map[zkphire.CircuitHash]*flight
}

// NewRegistry returns a registry caching up to capacity sessions
// (capacity < 1 is treated as 1). A preprocessing run holds one of
// queue's slots — waiting at most leaseTimeout for it (0 = no bound) —
// so registration traffic and in-flight proofs share one machine-wide
// cap.
func NewRegistry(srs *zkphire.SRS, queue *Queue, capacity int, leaseTimeout time.Duration, m *Metrics) *Registry {
	if capacity < 1 {
		capacity = 1
	}
	return &Registry{
		srs:          srs,
		queue:        queue,
		leaseTimeout: leaseTimeout,
		cap:          capacity,
		metrics:      m,
		entries:      make(map[zkphire.CircuitHash]*list.Element),
		lru:          list.New(),
		flights:      make(map[zkphire.CircuitHash]*flight),
	}
}

// Register returns the session for the compiled circuit, preprocessing it
// on a cache miss. cached reports whether the session already existed (an
// LRU hit); requests that share another request's in-progress
// preprocessing report cached=false — they missed, they just didn't pay.
func (r *Registry) Register(ctx context.Context, compiled *zkphire.CompiledCircuit) (sess *Session, cached bool, err error) {
	h := compiled.Hash()

	r.mu.Lock()
	if el, ok := r.entries[h]; ok {
		r.lru.MoveToFront(el)
		r.mu.Unlock()
		r.metrics.CacheHits.Add(1)
		return el.Value.(*Session), true, nil
	}
	if f, ok := r.flights[h]; ok {
		r.mu.Unlock()
		r.metrics.SingleFlightShared.Add(1)
		select {
		case <-f.done:
			return f.sess, false, f.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	r.flights[h] = f
	r.mu.Unlock()
	r.metrics.CacheMisses.Add(1)

	f.sess, f.err = r.preprocess(h, compiled)

	r.mu.Lock()
	delete(r.flights, h)
	if f.err == nil {
		r.insert(h, f.sess)
	}
	r.mu.Unlock()
	close(f.done)
	return f.sess, false, f.err
}

// preprocess runs the one NewProver call for a circuit in a queue slot.
// It deliberately ignores the originating request's context: by the
// time it runs, the result is wanted by every request parked on the
// flight, and a finished session goes into the cache even if the client
// has gone away. The slot wait is still bounded by leaseTimeout so a
// saturated queue turns into an error, not a parked goroutine per
// circuit.
func (r *Registry) preprocess(h zkphire.CircuitHash, compiled *zkphire.CompiledCircuit) (*Session, error) {
	ctx := context.Background()
	if r.leaseTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.leaseTimeout)
		defer cancel()
	}
	if err := r.queue.acquire(ctx); err != nil {
		return nil, fmt.Errorf("prover busy, no slot freed within %v: %w", r.leaseTimeout, err)
	}
	defer r.queue.release()
	r.metrics.Preprocesses.Add(1)

	prover, err := zkphire.NewProver(r.srs, compiled, zkphire.WithWorkers(r.queue.Workers()))
	if err != nil {
		return nil, fmt.Errorf("preprocess: %w", err)
	}
	vkBytes, err := prover.VerifyingKey().MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("serialize verifying key: %w", err)
	}
	return &Session{
		Hash:      h,
		Prover:    prover,
		VKBytes:   vkBytes,
		Kind:      compiled.Arithmetization(),
		LogGates:  compiled.LogGates(),
		GateCount: compiled.GateCount(),
	}, nil
}

// insert adds a session and evicts from the LRU tail past capacity.
// Caller holds mu.
func (r *Registry) insert(h zkphire.CircuitHash, s *Session) {
	r.entries[h] = r.lru.PushFront(s)
	for r.lru.Len() > r.cap {
		tail := r.lru.Back()
		evicted := tail.Value.(*Session)
		r.lru.Remove(tail)
		delete(r.entries, evicted.Hash)
		r.metrics.CacheEvictions.Add(1)
	}
}

// Get returns the cached session for a circuit ID, marking it recently
// used. ok is false when the circuit was never registered or has been
// evicted — the client must re-register.
func (r *Registry) Get(h zkphire.CircuitHash) (*Session, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.entries[h]
	if !ok {
		return nil, false
	}
	r.lru.MoveToFront(el)
	return el.Value.(*Session), true
}

// Len returns the number of cached sessions.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lru.Len()
}
