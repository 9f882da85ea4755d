// Package service turns the zkphire proving library into a long-running,
// multi-tenant proving service. Two halves compose it:
//
//   - Server — the one client front-end: the HTTP JSON API (POST
//     /circuits, /prove, /verify; GET /healthz, /metrics), draining,
//     timeout clamping, the idempotency-key state machine over
//     internal/journal, the table of unsettled jobs that requests attach
//     to, and restart recovery. It moves circuits as straight-line
//     programs (CircuitSpec) and proofs/verifying keys over the library's
//     validated MarshalBinary wire formats, and knows nothing about how a
//     proof gets made.
//   - Backend — what makes the proof. This package holds the local one
//     (New): Registry, an LRU cache of proving sessions keyed by circuit
//     content hash with single-flight preprocessing, and Queue, an
//     admission gate that runs each proof in the goroutine submitting it
//     once one of its in-flight slots frees, with an even share of the
//     worker budget, and whose full waiting room rejects immediately
//     (HTTP 429). internal/cluster holds the remote one: a leased worker
//     pool behind the same front-end.
//
// The package is embeddable: cmd/zkphired wraps it in a daemon, tests and
// examples mount Server.Handler on httptest. See ARCHITECTURE.md for where
// the service sits in the repository's layering and DESIGN.md §3 for the
// front-end/backend split, the cache and the admission-control design.
package service

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"zkphire"
	"zkphire/internal/journal"
	"zkphire/internal/retry"
)

// Backend is the prover behind a Server. The front-end decides how a key
// is made exactly-once; a backend decides only how a proof is made. Its
// errors reach the client through Server.fail: an *Error keeps its own
// status, a *retry.StatusError relays another node's verdict.
type Backend interface {
	// Register makes the circuit provable and describes it to the client.
	Register(ctx context.Context, spec *CircuitSpec) (*RegisterResponse, error)
	// Spec reports whether a job may name circuitID (nil error = yes). A
	// backend that stores specs returns the raw JSON, which the front-end
	// journals ahead of a keyed job; one that does not returns nil, and
	// the journal must already hold it from registration.
	Spec(circuitID string) ([]byte, error)
	// Prove runs one job until it settles or ctx ends. key is the job's
	// idempotency key ("" = unkeyed); timeout, already clamped, bounds one
	// proving attempt as the backend defines it.
	Prove(ctx context.Context, key, circuitID string, timeout time.Duration) (proof []byte, workers int, err error)
	// VerifyingKey resolves a circuit_id for POST /verify.
	VerifyingKey(ctx context.Context, circuitID string) (*zkphire.VerifyingKey, error)
	// RetryAfter is the back-off in whole seconds (>= 1) on every 429/503.
	RetryAfter() int
	// Health is the GET /healthz payload: h plus the role's own fields
	// (jobs is the front-end's count of unsettled jobs).
	Health(h Health, jobs int) any
	// Scrape is the role's contribution to GET /metrics.
	Scrape() ([]Counter, []Series)
	// Replayed counts one keyed retry answered from the journal.
	Replayed()
	// Close stops what the backend started; no Prove is running by then.
	Close()
}

// Error is a failure that already knows its client status.
type Error struct {
	Status int
	Msg    string
}

func (e *Error) Error() string { return e.Msg }

// Errorf builds an *Error.
func Errorf(status int, format string, args ...any) error {
	return &Error{Status: status, Msg: fmt.Sprintf(format, args...)}
}

// Config sizes a single-node Server. The zero value of every field picks
// a sensible default, so Config{SRS: srs} is a working setup.
type Config struct {
	// SRS backs every session; circuits needing more variables than it
	// supports are rejected at registration. Required.
	SRS *zkphire.SRS
	// Workers is the global worker budget shared by preprocessing and
	// proving (0 = GOMAXPROCS).
	Workers int
	// MaxInflight is the number of proofs running concurrently
	// (0 = 2, a latency/throughput middle ground), capped at Workers;
	// each in-flight proof or preprocessing run holds one of these slots
	// and runs with an even share of Workers.
	MaxInflight int
	// QueueDepth is the waiting room beyond the in-flight proofs
	// (0 = 4×MaxInflight; set -1 for no waiting room).
	QueueDepth int
	// CacheSize is the session-LRU capacity (0 = 32 circuits).
	CacheSize int
	// DefaultTimeout bounds a prove job with no explicit deadline
	// (0 = 2 minutes). Client-requested deadlines are capped at maxTimeout.
	DefaultTimeout time.Duration
	// Journal, when set, makes the server crash-safe: accepted prove jobs
	// with idempotency keys are durably recorded before proving and marked
	// complete after, so RecoverJournal can finish them across a restart
	// and duplicate client retries are answered from the stored proof.
	// The caller owns the journal's lifecycle (Open before New, Close
	// after the server stops).
	Journal *journal.Journal
}

// maxTimeout caps client-requested job deadlines and a preprocessing
// run's wait for a slot.
const maxTimeout = 10 * time.Minute

// awaitSlack is how long past a job's own timeout a request stays parked
// on it before answering 504.
const awaitSlack = 5 * time.Second

// Server is the client front-end over one Backend. Construct with New
// (local prover) or cluster.New (worker pool), mount Handler, Close when
// done.
type Server struct {
	backend Backend
	local   *local // backend, when New built it; nil over any other
	srs     *zkphire.SRS
	journal *journal.Journal // nil = no durability
	timeout time.Duration    // a job's deadline when the client names none
	mux     *http.ServeMux
	start   time.Time
	// draining flips once, on Drain: admission endpoints answer 503 with a
	// Retry-After while unsettled jobs finish.
	draining atomic.Bool

	// base parents every job's context; Close cancels it (under mu, so no
	// job is created past that point) and waits on wg for the jobs.
	base context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	mu        sync.Mutex
	jobs      map[string]*proofJob // unsettled keyed jobs, by idempotency key
	unsettled int                  // unsettled jobs, keyed or not
}

// proofJob is one proof the front-end owes. It owns its result: settle
// writes it and then closes done, so a request that leaves early reads
// nothing and one that stays reads it race-free.
type proofJob struct {
	key, circuitID string // key "" = unkeyed
	timeout        time.Duration
	ctx            context.Context
	cancel         context.CancelFunc
	done           chan struct{}

	proof   []byte
	workers int
	elapsed time.Duration
	err     error
}

// New builds the single-node server: the front-end over a local Registry
// and Queue.
func New(cfg Config) (*Server, error) {
	if cfg.SRS == nil {
		return nil, fmt.Errorf("service: Config.SRS is required")
	}
	l := newLocal(cfg)
	s := NewServer(l, cfg.SRS, cfg.Journal, cfg.DefaultTimeout)
	s.local = l
	return s, nil
}

// NewServer builds the front-end over any backend. It is the seam
// internal/cluster uses; everything else calls New or cluster.New.
func NewServer(b Backend, srs *zkphire.SRS, jnl *journal.Journal, defaultTimeout time.Duration) *Server {
	if defaultTimeout <= 0 {
		defaultTimeout = 2 * time.Minute
	}
	s := &Server{
		backend: b,
		srs:     srs,
		journal: jnl,
		timeout: defaultTimeout,
		mux:     http.NewServeMux(),
		start:   time.Now(),
		jobs:    make(map[string]*proofJob),
	}
	s.base, s.stop = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /circuits", s.handleCircuits)
	s.mux.HandleFunc("POST /prove", s.handleProve)
	s.mux.HandleFunc("POST /verify", s.handleVerify)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Handle mounts a backend's own routes (the coordinator's /cluster/*)
// beside the client API.
func (s *Server) Handle(pattern string, h http.HandlerFunc) { s.mux.HandleFunc(pattern, h) }

// Close cancels every unsettled job, waits for them, and stops the
// backend. A cancelled keyed job is not settled in the journal: it stays
// pending there for the next start's recovery. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	closed := s.base.Err() != nil
	s.stop()
	s.mu.Unlock()
	if closed {
		return
	}
	s.wg.Wait()
	s.backend.Close()
}

// Drain stops admission — POST /circuits and /prove answer 503 with a
// Retry-After — and waits until no job is unsettled, or returns ctx.Err()
// when the drain deadline passes first. Keyed jobs unfinished then remain
// pending in the journal (accepted at admission), so the next start's
// recovery picks them up; nothing is lost either way.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for s.Unsettled() > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	return nil
}

// Unsettled reports the jobs admitted and not yet settled.
func (s *Server) Unsettled() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.unsettled
}

// clampTimeout applies the default and the cap to a requested job timeout.
func (s *Server) clampTimeout(d time.Duration) time.Duration {
	if d <= 0 {
		return s.timeout
	}
	return min(d, maxTimeout)
}

// errClosing answers requests that meet a closing server.
var errClosing = Errorf(http.StatusServiceUnavailable, "shutting down")

// newJob returns the unsettled job under key, or creates one (always, for
// key "") with the requested timeout clamped. The creator must run,
// launch or settle what it created.
func (s *Server) newJob(key, circuitID string, timeout time.Duration) (j *proofJob, created bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j, ok := s.jobs[key]; ok && key != "" {
		return j, false, nil
	}
	if s.base.Err() != nil {
		return nil, false, errClosing
	}
	j = &proofJob{key: key, circuitID: circuitID, timeout: s.clampTimeout(timeout), done: make(chan struct{})}
	j.ctx, j.cancel = context.WithCancel(s.base)
	if key != "" {
		s.jobs[key] = j
	}
	s.unsettled++
	s.wg.Add(1)
	return j, true, nil
}

// launch starts the goroutine that owns j until it settles.
func (s *Server) launch(j *proofJob) {
	//zkvet:ignore norawgo one goroutine per admitted job, bounded by the backend's admission control; joined via wg.Wait in Close
	go s.run(j)
}

// run proves j and settles it.
func (s *Server) run(j *proofJob) {
	started := time.Now()
	proof, workers, err := s.backend.Prove(j.ctx, j.key, j.circuitID, j.timeout)
	// Settle the key before any client sees the outcome: Complete makes
	// the proof durable, Fail re-opens the key so a retry can re-prove
	// instead of hitting 409 forever. A crash before this point — or a
	// Close, which is the only thing that cancels a keyed job — leaves
	// the record pending, exactly the state recovery replays.
	if j.key != "" && j.ctx.Err() == nil {
		if err == nil {
			if jerr := s.journal.Complete(j.key, proof); jerr != nil {
				err = fmt.Errorf("journal complete: %w", jerr)
			}
		} else if jerr := s.journal.Fail(j.key, err.Error()); jerr != nil {
			err = fmt.Errorf("journal fail (after %v): %w", err, jerr)
		}
	}
	j.proof, j.workers, j.elapsed = proof, workers, time.Since(started)
	s.settle(j, err)
}

// settle publishes j's outcome and drops it from the table, so the table
// holds only unsettled jobs.
func (s *Server) settle(j *proofJob, err error) {
	j.err = err
	s.mu.Lock()
	if s.jobs[j.key] == j {
		delete(s.jobs, j.key)
	}
	s.unsettled--
	s.mu.Unlock()
	j.cancel()
	close(j.done)
	s.wg.Done()
}

// await parks the caller on j until it settles, its timeout (plus slack)
// passes, ctx ends, or the server closes. A keyed job runs on after its
// waiters leave — it is journaled, a retry collects it; an unkeyed job has
// one waiter and nobody could ever collect it, so leaving cancels it.
func (s *Server) await(ctx context.Context, j *proofJob) error {
	wait := time.NewTimer(j.timeout + awaitSlack)
	defer wait.Stop()
	var err error
	select {
	case <-j.done:
		return j.err
	case <-wait.C:
		err = Errorf(http.StatusGatewayTimeout, "job still unfinished after %v — a keyed job keeps running; retry with the same idempotency key", j.timeout+awaitSlack)
	case <-ctx.Done():
		err = ctx.Err()
	case <-s.base.Done():
		err = errClosing
	}
	if j.key == "" {
		j.cancel()
	}
	return err
}

// RecoverJournal finishes the keyed jobs a previous process left pending:
// each is re-run as an ordinary job (already accepted, so a client retry
// attaches to it) and settles in the journal like any other. The prover
// is deterministic, so a replayed proof is byte-identical to the one the
// uninterrupted run would have produced. Each job settles before the next
// starts, which keeps recovery inside a bounded local queue; if ctx (nil =
// none) ends first the rest stay pending for the next start.
//
// It returns the number of jobs re-run and the first infrastructure
// error (a journal write failing, ctx expiring). A job whose own proof
// fails is marked failed in the journal and does not stop the sweep.
func (s *Server) RecoverJournal(ctx context.Context) (int, error) {
	if ctx == nil {
		ctx = s.base
	}
	return s.recoverPending(ctx, true)
}

// StartRecovery is RecoverJournal without the waiting: every pending job
// starts at once and settles in the background. It suits a backend whose
// jobs wait for capacity — the cluster's workers join only after the
// coordinator serves — not one that rejects what it cannot queue.
func (s *Server) StartRecovery() (int, error) { return s.recoverPending(s.base, false) }

func (s *Server) recoverPending(ctx context.Context, wait bool) (started int, err error) {
	if s.journal == nil {
		return 0, nil
	}
	for _, rec := range s.journal.Pending() {
		if err := s.restore(ctx, rec.CircuitID); err != nil {
			if ctx.Err() != nil {
				return started, ctx.Err()
			}
			if jerr := s.journal.Fail(rec.Key, "replay: "+err.Error()); jerr != nil {
				return started, jerr
			}
			continue
		}
		j, created, err := s.newJob(rec.Key, rec.CircuitID, time.Duration(rec.TimeoutMS)*time.Millisecond)
		if err != nil {
			return started, err
		}
		if !created {
			continue // already running in this process
		}
		s.launch(j)
		started++
		if wait {
			select {
			case <-j.done:
			case <-ctx.Done():
				return started, ctx.Err()
			}
		}
	}
	return started, nil
}

// restore makes a journaled circuit provable again after a restart, from
// its spec, which fully determines it (the witness is embedded).
func (s *Server) restore(ctx context.Context, circuitID string) error {
	if _, err := s.backend.Spec(circuitID); err == nil {
		return nil
	}
	// Accept requires the journaled circuit, so a missing spec is
	// unreachable through the handlers — but a hand-edited journal must
	// fail the job (nil does not decode), not wedge recovery.
	raw, _ := s.journal.Spec(circuitID)
	var spec CircuitSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("journaled spec of circuit %s: %w", circuitID, err)
	}
	_, err := s.backend.Register(ctx, &spec)
	return err
}

// The JSON request plumbing below is the one copy every HTTP role uses:
// this front-end, and internal/cluster's control plane and worker agent.

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

// fail is the one place an error becomes a client response. The back-off
// statuses (429, 503) always carry the backend's Retry-After, which
// retry.PostJSON honours.
func (s *Server) fail(w http.ResponseWriter, op string, err error) {
	var (
		e     *Error
		relay *retry.StatusError
	)
	switch {
	case errors.As(err, &e):
	case errors.As(err, &relay):
		// Another node's verdict (400/422/...), passed through verbatim.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(relay.StatusCode)
		fmt.Fprint(w, relay.Body)
		return
	case errors.Is(err, ErrQueueFull):
		e = &Error{http.StatusTooManyRequests, fmt.Sprintf("prover saturated: %v", err)}
	case errors.Is(err, context.DeadlineExceeded):
		e = &Error{http.StatusGatewayTimeout, fmt.Sprintf("%s deadline exceeded", op)}
	case errors.Is(err, context.Canceled):
		e = &Error{StatusClientClosedRequest, fmt.Sprintf("%s abandoned: %v", op, err)}
	default:
		e = &Error{http.StatusInternalServerError, fmt.Sprintf("%s: %v", op, err)}
	}
	if e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(s.backend.RetryAfter()))
	}
	Fail(w, e.Status, "%s", e.Msg)
}

// admitting answers 503 and returns false once Drain has started.
func (s *Server) admitting(w http.ResponseWriter, what string) bool {
	if s.draining.Load() {
		s.fail(w, "", Errorf(http.StatusServiceUnavailable, "draining: not accepting new %s", what))
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

// handleCircuits makes the posted CircuitSpec provable on the backend
// and — on a journaled server — durably records it, so a restarted
// daemon can rebuild the circuit and finish the jobs that reference it.
func (s *Server) handleCircuits(w http.ResponseWriter, r *http.Request) {
	if !s.admitting(w, "circuits") {
		return
	}
	var spec CircuitSpec
	if !Decode(w, r, &spec) {
		return
	}
	resp, err := s.backend.Register(r.Context(), &spec)
	if err == nil && s.journal != nil {
		var raw []byte
		if raw, err = json.Marshal(&spec); err == nil {
			err = s.journal.RecordCircuit(resp.CircuitID, raw)
		}
		if err != nil {
			err = fmt.Errorf("journal circuit: %w", err)
		}
	}
	if err != nil {
		s.fail(w, "register", err)
		return
	}
	OK(w, resp)
}

// RegisterSpec registers spec on the local backend without the HTTP
// round trip or the journal — the cluster worker agent installs
// coordinator-replicated circuits with it.
func (s *Server) RegisterSpec(ctx context.Context, spec *CircuitSpec) (sess *Session, cached bool, err error) {
	return s.local.register(ctx, spec)
}

// HasCircuit reports whether a job may name the hex circuit ID.
func (s *Server) HasCircuit(id string) bool {
	_, err := s.backend.Spec(id)
	return err == nil
}

// ProveRequest asks for one proof of a registered circuit.
type ProveRequest struct {
	CircuitID string `json:"circuit_id"`
	// TimeoutMS bounds the job; 0 uses the server's default, values past
	// the 10-minute cap are clamped.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// IdempotencyKey, on a journaled server, makes the request exactly-once
	// across crashes and client retries: the job is durably accepted under
	// this key before proving, a retry of a finished key is answered from
	// the stored proof (Replayed=true), a retry while the job runs in this
	// process attaches to it, and a key pending only in the journal gets
	// 409. Ignored when the server has no journal.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// ProveResponse carries the proof.
type ProveResponse struct {
	CircuitID  string  `json:"circuit_id"`
	Proof      string  `json:"proof"` // base64 MarshalBinary
	ProofBytes int     `json:"proof_bytes"`
	DurationMS float64 `json:"duration_ms"`
	Workers    int     `json:"workers"` // this proof ran with
	// Replayed marks a proof served from the journal rather than proved
	// for this request (idempotent retry or restart recovery).
	Replayed bool `json:"replayed,omitempty"`
}

func proveResponse(circuitID string, proof []byte) ProveResponse {
	return ProveResponse{CircuitID: circuitID, Proof: base64.StdEncoding.EncodeToString(proof), ProofBytes: len(proof)}
}

// inFlight is the 409 for a key some other request holds.
const inFlight = "job %q already in flight — retry after it settles"

// admit is the idempotency-key state machine: it answers a settled key
// from the journal (replay), attaches to the key's unsettled job, refuses
// a key that is pending only in the journal, or accepts and launches a
// new job. Exactly one of j, replay and err is set.
func (s *Server) admit(key string, req *ProveRequest) (j *proofJob, replay *ProveResponse, err error) {
	// Settled and in-flight keys are answered from the journal alone,
	// BEFORE the circuit lookup: after a restart the circuit may no longer
	// be registered (or even journaled — Compact keeps settled entries but
	// drops circuits only they reference), and a completed key's reply
	// must survive that.
	if key != "" {
		if rec, ok := s.journal.Lookup(key); ok {
			switch rec.State {
			case journal.StateDone:
				// Answered once, answered forever: the stored proof is the
				// proof — no re-prove, byte-identical to the first reply.
				s.backend.Replayed()
				resp := proveResponse(rec.CircuitID, rec.Proof)
				resp.Replayed = true
				return nil, &resp, nil
			case journal.StatePending:
				s.mu.Lock()
				j = s.jobs[key]
				s.mu.Unlock()
				if j == nil {
					// Another process's job (or one a failed journal write
					// stranded): only recovery may re-run it.
					return nil, nil, Errorf(http.StatusConflict, inFlight, key)
				}
				return j, nil, nil
			}
			// StateFailed falls through: the retry re-accepts the key.
		}
	}
	spec, err := s.backend.Spec(req.CircuitID)
	if err != nil {
		return nil, nil, err
	}
	j, created, err := s.newJob(key, req.CircuitID, time.Duration(req.TimeoutMS)*time.Millisecond)
	if err != nil || !created {
		return j, nil, err
	}
	if key != "" {
		// Accept requires the circuit journaled, but boot-time compaction
		// drops circuits no pending job references while a spec-storing
		// backend keeps serving them. Re-journal first — a no-op when the
		// circuit record is already present.
		if spec != nil {
			err = s.journal.RecordCircuit(req.CircuitID, spec)
		}
		if err == nil {
			err = s.journal.Accept(key, req.CircuitID, req.TimeoutMS)
		}
		if errors.Is(err, journal.ErrDuplicateKey) {
			// A concurrent request settled the key since the lookup.
			err = Errorf(http.StatusConflict, inFlight, key)
		} else if err != nil {
			err = fmt.Errorf("journal accept: %w", err)
		}
		if err != nil {
			s.settle(j, err)
			return nil, nil, err
		}
	}
	s.launch(j)
	return j, nil, nil
}

func (s *Server) handleProve(w http.ResponseWriter, r *http.Request) {
	if !s.admitting(w, "proofs") {
		return
	}
	var req ProveRequest
	if !Decode(w, r, &req) {
		return
	}
	key := req.IdempotencyKey
	if s.journal == nil {
		key = ""
	}
	j, replay, err := s.admit(key, &req)
	if err == nil && replay != nil {
		OK(w, replay)
		return
	}
	if err == nil {
		err = s.await(r.Context(), j)
	}
	if err != nil {
		s.fail(w, "proof", err)
		return
	}
	resp := proveResponse(j.circuitID, j.proof)
	resp.DurationMS = float64(j.elapsed) / float64(time.Millisecond)
	resp.Workers = j.workers
	OK(w, resp)
}

// ProveHex is an unkeyed POST /prove without the HTTP round trip, run in
// the caller's goroutine: timeout is clamped (0 = the default) and the job
// is cancelled if ctx ends first. It is still a front-end job, so Drain
// and Unsettled count it. The cluster worker agent proves leases with it —
// keys and replay are the coordinator's front-end's job.
func (s *Server) ProveHex(ctx context.Context, circuitID string, timeout time.Duration) (data []byte, workers int, err error) {
	j, _, err := s.newJob("", circuitID, timeout)
	if err != nil {
		return nil, 0, err
	}
	defer context.AfterFunc(ctx, j.cancel)()
	s.run(j)
	if j.err != nil {
		return nil, 0, j.err
	}
	return j.proof, j.workers, nil
}

// VerifyRequest checks a proof. The verifying key comes from the backend
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
		var err error
		if vk, err = s.backend.VerifyingKey(r.Context(), req.CircuitID); err != nil {
			s.fail(w, "verifying key", err)
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
	if err := zkphire.Verify(s.srs, vk, &proof); err != nil {
		OK(w, VerifyResponse{Valid: false, Reason: err.Error()})
		return
	}
	OK(w, VerifyResponse{Valid: true})
}

// Health is the part of GET /healthz every role reports; each backend
// embeds it in its own payload.
type Health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{Status: "ok", UptimeSeconds: time.Since(s.start).Seconds()}
	if s.draining.Load() {
		h.Status = "draining"
	}
	OK(w, s.backend.Health(h, s.Unsettled()))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	writePrometheus(w, s.backend)
}
