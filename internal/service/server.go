// Package service turns the zkphire proving library into a long-running,
// multi-tenant proving service. Three pieces compose it:
//
//   - Registry — an LRU cache of proving sessions keyed by circuit content
//     hash, with single-flight deduplication so concurrent registrations of
//     the same circuit share one preprocessing run (the expensive selector
//     and sigma commitments are paid once, then amortized across every
//     proof of that circuit).
//   - Queue — a bounded job queue with admission control: at most
//     `inflight` proofs run at once, each under a worker lease from a
//     shared parallel.Budget so overlapping requests split the machine
//     instead of oversubscribing it; a full waiting room rejects
//     immediately (HTTP 429) rather than building an unbounded backlog.
//   - Server — an HTTP JSON API (POST /circuits, /prove, /verify;
//     GET /healthz, /metrics) that moves circuits as straight-line
//     programs (CircuitSpec) and proofs/verifying keys over the library's
//     validated MarshalBinary wire formats.
//
// The package is embeddable: cmd/zkphired wraps it in a daemon, tests and
// examples mount Server.Handler on httptest. See ARCHITECTURE.md for where
// the service sits in the repository's layering and DESIGN.md §3 for the
// cache and admission-control design.
package service

import (
	"context"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"zkphire"
	"zkphire/internal/journal"
	"zkphire/internal/parallel"
)

// Config sizes a Server. The zero value of every field picks a sensible
// default, so Config{SRS: srs} is a working single-machine setup.
type Config struct {
	// SRS backs every session; circuits needing more variables than it
	// supports are rejected at registration. Required.
	SRS *zkphire.SRS
	// Workers is the global worker budget shared by preprocessing and
	// proving (0 = GOMAXPROCS).
	Workers int
	// MaxInflight is the number of proofs running concurrently
	// (0 = 2, a latency/throughput middle ground; each in-flight proof
	// leases Workers/MaxInflight workers).
	MaxInflight int
	// QueueDepth is the waiting room beyond the in-flight proofs
	// (0 = 4×MaxInflight; set -1 for no waiting room).
	QueueDepth int
	// CacheSize is the session-LRU capacity (0 = 32 circuits).
	CacheSize int
	// DefaultTimeout bounds a prove job with no explicit deadline
	// (0 = 2 minutes); MaxTimeout caps client-requested deadlines
	// (0 = 10 minutes).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Journal, when set, makes the server crash-safe: accepted prove jobs
	// with idempotency keys are durably recorded before proving and marked
	// complete after, so RecoverJournal can finish them across a restart
	// and duplicate client retries are answered from the stored proof.
	// The caller owns the journal's lifecycle (Open before New, Close
	// after the server stops).
	Journal *journal.Journal
}

// Server is the embeddable proving service. Construct with New, mount
// Handler, Close when done.
type Server struct {
	cfg      Config
	budget   *parallel.Budget
	registry *Registry
	queue    *Queue
	metrics  *Metrics
	mux      *http.ServeMux
	start    time.Time
	journal  *journal.Journal // nil = no durability
	// draining flips once, on Drain: admission endpoints answer 503 with a
	// Retry-After while in-flight jobs finish.
	draining atomic.Bool
}

// New validates cfg, applies its defaults, and starts the dispatcher pool.
func New(cfg Config) (*Server, error) {
	if cfg.SRS == nil {
		return nil, fmt.Errorf("service: Config.SRS is required")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2
	}
	switch {
	case cfg.QueueDepth < 0:
		cfg.QueueDepth = 0
	case cfg.QueueDepth == 0:
		cfg.QueueDepth = 4 * cfg.MaxInflight
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 32
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 2 * time.Minute
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Minute
	}

	s := &Server{
		cfg:     cfg,
		budget:  parallel.NewBudget(cfg.Workers),
		metrics: &Metrics{},
		start:   time.Now(),
		journal: cfg.Journal,
	}
	s.queue = NewQueue(s.budget, cfg.MaxInflight, cfg.QueueDepth, s.metrics)
	// Preprocessing leases the same per-job share the queue computed, and
	// waits at most the server's deadline cap for it.
	s.registry = NewRegistry(cfg.SRS, s.budget, cfg.CacheSize, s.queue.Workers(), cfg.MaxTimeout, s.metrics)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /circuits", s.handleCircuits)
	mux.HandleFunc("POST /prove", s.handleProve)
	mux.HandleFunc("POST /verify", s.handleVerify)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's counters (tests and embedders read them).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Budget exposes the shared worker budget; the fault and chaos tests
// assert OutstandingLeases()==0 on it after every injected failure.
func (s *Server) Budget() *parallel.Budget { return s.budget }

// Close drains the job queue and stops the dispatchers.
func (s *Server) Close() { s.queue.Close() }

// Drain stops admission — POST /circuits and /prove answer 503 with a
// Retry-After — and waits for every queued and running job to finish.
// It returns nil once the queue is idle, or ctx.Err() when the drain
// deadline passes first. Jobs unfinished at the deadline remain pending
// in the journal (their accept records were written at admission), so
// the next start's RecoverJournal picks them up; nothing is lost either
// way.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.queue.Depth() == 0 && s.queue.Running() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Draining reports whether Drain has started.
func (s *Server) Draining() bool { return s.draining.Load() }

// Load snapshots the job queue — the cluster worker agent reports it in
// heartbeats so operators can see pool imbalance.
func (s *Server) Load() (queued, running int) { return s.queue.Depth(), s.queue.Running() }

// RecoverJournal finishes the work a previous process left behind: for
// every pending journal record it rebuilds the circuit's proving session
// from the journaled spec, re-proves through the normal queue (same
// budget, same admission discipline, same retry policy), and marks the
// record done. The prover is deterministic, so a replayed proof is
// byte-identical to the one the uninterrupted run would have produced.
// Call it after New and before serving traffic.
//
// It returns the number of jobs replayed and the first infrastructure
// error (a journal write failing, ctx expiring). A job whose own proof
// fails is marked failed in the journal and does not stop the sweep.
func (s *Server) RecoverJournal(ctx context.Context) (replayed int, err error) {
	if s.journal == nil {
		return 0, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	for _, rec := range s.journal.Pending() {
		specJSON, ok := s.journal.Spec(rec.CircuitID)
		if !ok {
			// Unreachable through the handlers (Accept requires the
			// journaled circuit), but a hand-edited journal must not wedge
			// recovery.
			if jerr := s.journal.Fail(rec.Key, "replay: circuit spec missing from journal"); jerr != nil {
				return replayed, jerr
			}
			continue
		}
		var spec CircuitSpec
		serr := json.Unmarshal(specJSON, &spec)
		var sess *Session
		if serr == nil {
			var compiled *zkphire.CompiledCircuit
			if compiled, serr = spec.Compile(); serr == nil {
				sess, _, serr = s.registry.Register(ctx, compiled)
			}
		}
		var data []byte
		if serr == nil {
			timeout := s.clampTimeout(time.Duration(rec.TimeoutMS) * time.Millisecond)
			data, _, serr = s.proveSession(ctx, sess, timeout)
		}
		if serr != nil {
			if ctx.Err() != nil {
				// Recovery itself was cut short: leave the job pending for
				// the next start instead of branding it failed.
				return replayed, ctx.Err()
			}
			if jerr := s.journal.Fail(rec.Key, serr.Error()); jerr != nil {
				return replayed, jerr
			}
			continue
		}
		if jerr := s.journal.Complete(rec.Key, data); jerr != nil {
			return replayed, jerr
		}
		s.metrics.ProofsReplayed.Add(1)
		replayed++
	}
	return replayed, nil
}

// retryAfterSeconds estimates when capacity frees: the jobs ahead of a
// new arrival (waiting plus running) times the windowed recent mean
// proof latency, spread across the dispatcher pool, clamped to [1, 60]
// seconds. The window (Metrics.RecentAvgProve) matters on a long-lived
// daemon: a lifetime mean diluted by months of fast cached proofs would
// under-estimate a current slow-circuit regime — and vice versa —
// forever. Before any proof has finished the estimate falls back to one
// second per job slot — still queue-aware, never the old hard-coded 1.
func (s *Server) retryAfterSeconds() int {
	avg := s.metrics.RecentAvgProve()
	if avg <= 0 {
		avg = time.Second
	}
	ahead := s.queue.Depth() + s.queue.Running()
	est := time.Duration(ahead) * avg / time.Duration(s.cfg.MaxInflight)
	sec := int((est + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	if sec > 60 {
		sec = 60
	}
	return sec
}

// unavailable writes a 503/429-style response with the queue-derived
// Retry-After header.
func (s *Server) unavailable(w http.ResponseWriter, status int, format string, args ...any) {
	FailRetryAfter(w, status, s.retryAfterSeconds(), format, args...)
}

// The JSON request plumbing below is the one copy every HTTP role uses:
// this server, and internal/cluster's coordinator and worker agent.

// maxBodyBytes bounds request bodies (a 2^20-op program is ~64 MB JSON).
const maxBodyBytes = 64 << 20

// StatusClientClosedRequest is nginx's 499: the client went away before
// the response. Go's stdlib has no constant for it.
const StatusClientClosedRequest = 499

// apiError is the JSON error envelope every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

// Fail writes the JSON error envelope with the given status.
func Fail(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(apiError{Error: fmt.Sprintf(format, args...)})
}

// FailRetryAfter is Fail for the back-off statuses (429, 503): it tells
// the client — retry.PostJSON honours it — how many seconds to wait.
func FailRetryAfter(w http.ResponseWriter, status, seconds int, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(seconds))
	Fail(w, status, format, args...)
}

// OK writes v as a 200 JSON response.
func OK(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// Decode reads the size-bounded JSON request body into v, rejecting
// unknown fields; on failure it answers 400 and returns false.
func Decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		Fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// RegisterResponse answers POST /circuits.
type RegisterResponse struct {
	// CircuitID is the compiled circuit's content hash (hex) — the handle
	// for /prove and /verify. Deterministic: re-registering the same
	// program returns the same ID.
	CircuitID       string `json:"circuit_id"`
	Arithmetization string `json:"arithmetization"`
	LogGates        int    `json:"log_gates"`
	GateCount       int    `json:"gate_count"`
	// Cached reports whether the session already existed (no
	// preprocessing paid for this request).
	Cached bool `json:"cached"`
	// VerifyingKey is the base64 MarshalBinary verifying key, for clients
	// that verify proofs themselves.
	VerifyingKey string `json:"verifying_key"`
}

// ErrBadRequest wraps registration failures that are the client's fault
// (malformed spec, unsatisfied witness); the handlers map it to 400/422.
var ErrBadRequest = errors.New("service: bad request")

// errJournalWrite wraps journal I/O failures so the handlers answer 500
// (our fault) rather than a client-error status.
var errJournalWrite = errors.New("service: journal write failed")

// RegisterSpec compiles spec, materializes (or finds) its proving
// session, and — on a journaled server — durably records the spec so a
// restarted daemon can rebuild the session. It is the handler core of
// POST /circuits, exported so the cluster worker agent can register
// coordinator-replicated circuits without an HTTP round trip to itself.
func (s *Server) RegisterSpec(ctx context.Context, spec *CircuitSpec) (sess *Session, cached bool, err error) {
	compiled, err := spec.Compile()
	if err != nil {
		return nil, false, fmt.Errorf("%w: compile: %v", ErrBadRequest, err)
	}
	sess, cached, err = s.registry.Register(ctx, compiled)
	if err != nil {
		return nil, false, err
	}
	if s.journal != nil {
		// The spec fully determines the circuit (the witness is embedded),
		// so journaling it lets a restarted daemon rebuild this session and
		// finish the jobs that reference it.
		raw, jerr := json.Marshal(spec)
		if jerr == nil {
			jerr = s.journal.RecordCircuit(sess.Hash.String(), raw)
		}
		if jerr != nil {
			return nil, false, fmt.Errorf("%w: journal circuit: %v", errJournalWrite, jerr)
		}
	}
	return sess, cached, nil
}

// HasCircuit reports whether the hex circuit ID resolves to a cached
// session.
func (s *Server) HasCircuit(id string) bool {
	h, err := parseCircuitID(id)
	if err != nil {
		return false
	}
	_, ok := s.registry.Get(h)
	return ok
}

// handleCircuits compiles the posted CircuitSpec and materializes (or
// finds) its proving session.
func (s *Server) handleCircuits(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.unavailable(w, http.StatusServiceUnavailable, "draining: not accepting new circuits")
		return
	}
	var spec CircuitSpec
	if !Decode(w, r, &spec) {
		return
	}
	sess, cached, err := s.RegisterSpec(r.Context(), &spec)
	if err != nil {
		switch {
		case errors.Is(err, ErrBadRequest):
			Fail(w, http.StatusBadRequest, "%v", err)
		case errors.Is(err, errJournalWrite):
			Fail(w, http.StatusInternalServerError, "%v", err)
		case r.Context().Err() != nil:
			Fail(w, StatusClientClosedRequest, "registration abandoned: %v", err)
		case errors.Is(err, context.DeadlineExceeded):
			// The preprocessing lease timed out waiting on a saturated
			// worker budget — the registration analogue of the queue's 429.
			s.unavailable(w, http.StatusServiceUnavailable, "register: %v", err)
		default:
			Fail(w, http.StatusUnprocessableEntity, "register: %v", err)
		}
		return
	}
	OK(w, RegisterResponse{
		CircuitID:       sess.Hash.String(),
		Arithmetization: sess.Kind.String(),
		LogGates:        sess.LogGates,
		GateCount:       sess.GateCount,
		Cached:          cached,
		VerifyingKey:    base64.StdEncoding.EncodeToString(sess.VKBytes),
	})
}

// ProveRequest asks for one proof of a registered circuit.
type ProveRequest struct {
	CircuitID string `json:"circuit_id"`
	// TimeoutMS bounds the job (queue wait + proving); 0 uses the
	// server's default, values past MaxTimeout are clamped.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// IdempotencyKey, on a journaled server, makes the request exactly-once
	// across crashes and client retries: the job is durably accepted under
	// this key before proving, a retry of a finished key is answered from
	// the stored proof (Replayed=true), and a retry of a still-running key
	// gets 409. Ignored when the server has no journal.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// ProveResponse carries the proof.
type ProveResponse struct {
	CircuitID  string  `json:"circuit_id"`
	Proof      string  `json:"proof"` // base64 MarshalBinary
	ProofBytes int     `json:"proof_bytes"`
	DurationMS float64 `json:"duration_ms"`
	Workers    int     `json:"workers"` // leased for this proof
	// Replayed marks a proof served from the journal rather than proved
	// for this request (idempotent retry or restart recovery).
	Replayed bool `json:"replayed,omitempty"`
}

func (s *Server) handleProve(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.unavailable(w, http.StatusServiceUnavailable, "draining: not accepting new proofs")
		return
	}
	var req ProveRequest
	if !Decode(w, r, &req) {
		return
	}

	// Settled and in-flight idempotency keys are answered from the journal
	// alone, BEFORE the registry lookup: after a restart the circuit may no
	// longer be registered (or even journaled — Compact keeps settled
	// entries but drops circuits only they reference), and a completed
	// key's reply must survive that.
	journaled := s.journal != nil && req.IdempotencyKey != ""
	if journaled {
		if rec, ok := s.journal.Lookup(req.IdempotencyKey); ok {
			switch rec.State {
			case journal.StateDone:
				// Answered once, answered forever: the stored proof is the
				// proof — no re-prove, byte-identical to the first reply.
				s.metrics.ProofsReplayed.Add(1)
				OK(w, ProveResponse{
					CircuitID:  rec.CircuitID,
					Proof:      base64.StdEncoding.EncodeToString(rec.Proof),
					ProofBytes: len(rec.Proof),
					Workers:    0,
					Replayed:   true,
				})
				return
			case journal.StatePending:
				Fail(w, http.StatusConflict, "job %q already in flight — retry after it settles", req.IdempotencyKey)
				return
			}
			// StateFailed falls through: the retry re-accepts the key.
		}
	}

	sess, ok := s.lookup(w, req.CircuitID)
	if !ok {
		return
	}

	timeout := s.clampTimeout(time.Duration(req.TimeoutMS) * time.Millisecond)

	if journaled {
		if _, ok := s.journal.Spec(req.CircuitID); !ok {
			Fail(w, http.StatusNotFound, "circuit %s was never journaled — POST /circuits again", req.CircuitID)
			return
		}
		if err := s.journal.Accept(req.IdempotencyKey, req.CircuitID, req.TimeoutMS); err != nil {
			if errors.Is(err, journal.ErrDuplicateKey) {
				// A concurrent request with the same key won the race.
				Fail(w, http.StatusConflict, "job %q already in flight — retry after it settles", req.IdempotencyKey)
			} else {
				Fail(w, http.StatusInternalServerError, "journal accept: %v", err)
			}
			return
		}
	}

	started := time.Now()
	data, workers, err := s.proveSession(r.Context(), sess, timeout)
	if journaled {
		// Settle the key either way: Complete makes the proof durable
		// before the client sees it; Fail re-opens the key so a retry can
		// re-prove instead of hitting 409 forever. A crash before this
		// point leaves the record pending — exactly the state RecoverJournal
		// replays.
		if err == nil {
			if jerr := s.journal.Complete(req.IdempotencyKey, data); jerr != nil {
				Fail(w, http.StatusInternalServerError, "journal complete: %v", jerr)
				return
			}
		} else if jerr := s.journal.Fail(req.IdempotencyKey, err.Error()); jerr != nil {
			Fail(w, http.StatusInternalServerError, "journal fail (after %v): %v", err, jerr)
			return
		}
	}
	switch {
	case err == nil:
	case errors.Is(err, ErrQueueFull):
		s.unavailable(w, http.StatusTooManyRequests, "prover saturated: %v", err)
		return
	case errors.Is(err, context.DeadlineExceeded):
		Fail(w, http.StatusGatewayTimeout, "proof deadline exceeded after %v", timeout)
		return
	case errors.Is(err, context.Canceled):
		Fail(w, StatusClientClosedRequest, "proof abandoned: %v", err)
		return
	default:
		Fail(w, http.StatusInternalServerError, "prove: %v", err)
		return
	}
	elapsed := time.Since(started)

	OK(w, ProveResponse{
		CircuitID:  req.CircuitID,
		Proof:      base64.StdEncoding.EncodeToString(data),
		ProofBytes: len(data),
		DurationMS: float64(elapsed) / float64(time.Millisecond),
		Workers:    workers,
	})
}

// VerifyRequest checks a proof. The verifying key comes from the registry
// (CircuitID) or inline (VerifyingKey, base64) — inline wins, so clients
// can verify against keys from elsewhere.
type VerifyRequest struct {
	CircuitID    string `json:"circuit_id,omitempty"`
	VerifyingKey string `json:"verifying_key,omitempty"`
	Proof        string `json:"proof"`
}

// VerifyResponse reports the verdict. Valid=false with a 200 status is a
// well-formed proof that fails verification; malformed inputs are 4xx.
type VerifyResponse struct {
	Valid  bool   `json:"valid"`
	Reason string `json:"reason,omitempty"`
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	ServeVerify(w, r, s.cfg.SRS, func(id string) *zkphire.VerifyingKey {
		sess, ok := s.lookup(w, id)
		if !ok {
			return nil
		}
		return sess.Prover.VerifyingKey()
	})
}

// ServeVerify is the whole of POST /verify. The single-node server and
// the cluster coordinator differ only in how a circuit_id resolves to a
// verifying key: byID does that, writing its own error response and
// returning nil when it cannot.
func ServeVerify(w http.ResponseWriter, r *http.Request, srs *zkphire.SRS, byID func(circuitID string) *zkphire.VerifyingKey) {
	var req VerifyRequest
	if !Decode(w, r, &req) {
		return
	}
	var vk *zkphire.VerifyingKey
	switch {
	case req.VerifyingKey != "":
		raw, err := base64.StdEncoding.DecodeString(req.VerifyingKey)
		if err != nil {
			Fail(w, http.StatusBadRequest, "verifying_key is not base64: %v", err)
			return
		}
		if vk, err = zkphire.UnmarshalVerifyingKey(raw); err != nil {
			Fail(w, http.StatusBadRequest, "verifying_key: %v", err)
			return
		}
	case req.CircuitID != "":
		if vk = byID(req.CircuitID); vk == nil {
			return
		}
	default:
		Fail(w, http.StatusBadRequest, "need circuit_id or verifying_key")
		return
	}

	raw, err := base64.StdEncoding.DecodeString(req.Proof)
	if err != nil {
		Fail(w, http.StatusBadRequest, "proof is not base64: %v", err)
		return
	}
	var proof zkphire.Proof
	if err := proof.UnmarshalBinary(raw); err != nil {
		Fail(w, http.StatusBadRequest, "proof: %v", err)
		return
	}
	if err := zkphire.Verify(srs, vk, &proof); err != nil {
		OK(w, VerifyResponse{Valid: false, Reason: err.Error()})
		return
	}
	OK(w, VerifyResponse{Valid: true})
}

// parseCircuitID decodes a hex circuit ID into a CircuitHash.
func parseCircuitID(id string) (zkphire.CircuitHash, error) {
	var h zkphire.CircuitHash
	raw, err := hex.DecodeString(id)
	if err != nil || len(raw) != len(h) {
		return h, fmt.Errorf("circuit_id must be %d hex bytes", len(h))
	}
	copy(h[:], raw)
	return h, nil
}

// lookup resolves a circuit ID to its cached session, writing the error
// response on failure.
func (s *Server) lookup(w http.ResponseWriter, id string) (*Session, bool) {
	h, err := parseCircuitID(id)
	if err != nil {
		Fail(w, http.StatusBadRequest, "%v", err)
		return nil, false
	}
	sess, ok := s.registry.Get(h)
	if !ok {
		Fail(w, http.StatusNotFound, "circuit %s not registered (or evicted) — POST /circuits again", id)
		return nil, false
	}
	return sess, true
}

// ErrNotRegistered reports a prove against a circuit the session cache
// does not hold (never registered, or evicted).
var ErrNotRegistered = errors.New("service: circuit not registered")

// proveSession runs one proof of a cached session through the job queue
// (admission control, worker lease, bounded retries of transient
// failures) and returns the serialized proof bytes. It records the
// latency observation the Retry-After estimator feeds on.
func (s *Server) proveSession(ctx context.Context, sess *Session, timeout time.Duration) (data []byte, workers int, err error) {
	jctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var proof *zkphire.Proof
	started := time.Now()
	err = s.queue.Submit(jctx, func(ctx context.Context, w int) error {
		workers = w
		var err error
		proof, err = sess.Prover.ProveWorkers(ctx, w)
		return err
	})
	if err != nil {
		return nil, workers, err
	}
	if data, err = proof.MarshalBinary(); err != nil {
		return nil, workers, fmt.Errorf("serialize proof: %w", err)
	}
	s.metrics.ObserveProve(time.Since(started))
	return data, workers, nil
}

// ProveHex proves a registered circuit by its hex content-hash ID,
// clamping timeout to the server's bounds (0 = the default). It is the
// journal-free core of POST /prove, exported for the cluster worker
// agent: cross-node idempotency and replay are the coordinator's job, so
// the worker path needs exactly lookup + queue + proof bytes.
func (s *Server) ProveHex(ctx context.Context, circuitID string, timeout time.Duration) (data []byte, workers int, err error) {
	h, err := parseCircuitID(circuitID)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	sess, ok := s.registry.Get(h)
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotRegistered, circuitID)
	}
	return s.proveSession(ctx, sess, s.clampTimeout(timeout))
}

// clampTimeout applies the server's default and maximum to a
// client-requested job timeout.
func (s *Server) clampTimeout(d time.Duration) time.Duration {
	if d <= 0 {
		return s.cfg.DefaultTimeout
	}
	if d > s.cfg.MaxTimeout {
		return s.cfg.MaxTimeout
	}
	return d
}

// HealthResponse answers GET /healthz.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Circuits      int     `json:"circuits"`
	QueueDepth    int     `json:"queue_depth"`
	Inflight      int     `json:"inflight"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	OK(w, HealthResponse{
		Status:        status,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Circuits:      s.registry.Len(),
		QueueDepth:    s.queue.Depth(),
		Inflight:      s.queue.Running(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w, map[string]float64{
		"zkphired_queue_depth":     float64(s.queue.Depth()),
		"zkphired_inflight":        float64(s.queue.Running()),
		"zkphired_cache_entries":   float64(s.registry.Len()),
		"zkphired_cache_hit_rate":  s.metrics.HitRate(),
		"zkphired_worker_budget":   float64(s.budget.Total()),
		"zkphired_workers_in_use":  float64(s.budget.InUse()),
		"zkphired_workers_per_job": float64(s.queue.Workers()),
		"zkphired_uptime_seconds":  time.Since(s.start).Seconds(),
		// The Retry-After load signal: windowed, unlike the lifetime
		// summary above.
		"zkphired_proof_latency_recent_seconds": s.metrics.RecentAvgProve().Seconds(),
	})
}
