package cluster

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"zkphire"
	"zkphire/internal/journal"
	"zkphire/internal/retry"
	"zkphire/internal/service"
)

// Config sizes a Coordinator. Zero values pick workable defaults; only
// SRS is required.
type Config struct {
	// SRS lets the coordinator verify proofs locally (POST /verify) — it
	// never proves or preprocesses itself.
	SRS *zkphire.SRS
	// Journal, when set, makes keyed jobs crash-safe exactly as on the
	// single-node daemon: accepted before dispatch, completed before the
	// client sees the proof, replayed by Recover after a restart. The
	// caller owns open/close.
	Journal *journal.Journal
	// HeartbeatInterval is the beat cadence workers are told to keep
	// (0 = 1 s).
	HeartbeatInterval time.Duration
	// EvictAfter is how long a silent worker survives before eviction
	// (0 = 3 × HeartbeatInterval). Every lease on an evicted worker is
	// fenced and its jobs re-dispatched.
	EvictAfter time.Duration
	// LeaseTimeout bounds one dispatch attempt end to end; a lease older
	// than this is fenced and the job re-dispatched (0 = the job's
	// timeout plus 15 s of dispatch/completion slack).
	LeaseTimeout time.Duration
	// HedgeDelay, when positive, issues a second lease on a different
	// worker for any job still unfinished after this long — without
	// fencing the first, so the fastest completion wins.
	HedgeDelay time.Duration
	// MaxAttempts caps dispatches per job (hedges included) before the
	// job settles as failed (0 = 6).
	MaxAttempts int
	// DefaultTimeout and MaxTimeout clamp client job timeouts, mirroring
	// the service (0 = 2 m / 10 m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// Client performs cluster RPCs (nil = http.DefaultClient).
	Client *http.Client
	// Retry shapes dispatch RPC retries (zero value = the package
	// defaults: 3 attempts, short backoff).
	Retry retry.Policy
}

// Coordinator owns the client-facing API, the worker pool, and the job
// journal. Construct with New, mount Handler, call Recover after a
// restart, Drain then Close on shutdown.
type Coordinator struct {
	cfg     Config
	mux     *http.ServeMux
	members *memberTable
	jobs    *jobTable
	metrics *Metrics
	jnl     *journal.Journal
	client  *http.Client
	start   time.Time

	// specs is the replication store behind GET /cluster/circuits/{id}:
	// raw spec JSON by content hash, seeded from the journal on restart.
	// vks caches verifying keys obtained from worker registrations.
	specMu sync.Mutex
	specs  map[string][]byte
	vks    map[string]*zkphire.VerifyingKey

	// anonBase makes unkeyed job IDs unique across coordinator
	// incarnations, so a completion from a previous process's worker can
	// never be mistaken for a current job's.
	anonBase string
	anonSeq  atomic.Uint64

	draining  atomic.Bool
	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup
}

// New validates cfg, applies defaults, seeds the replication store from
// the journal, and starts the failure-detection monitor.
func New(cfg Config) (*Coordinator, error) {
	if cfg.SRS == nil {
		return nil, fmt.Errorf("cluster: Config.SRS is required")
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.EvictAfter <= 0 {
		cfg.EvictAfter = 3 * cfg.HeartbeatInterval
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 6
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 2 * time.Minute
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Minute
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}

	c := &Coordinator{
		cfg:      cfg,
		members:  newMemberTable(),
		jobs:     newJobTable(),
		metrics:  &Metrics{},
		jnl:      cfg.Journal,
		client:   cfg.Client,
		start:    time.Now(),
		specs:    make(map[string][]byte),
		vks:      make(map[string]*zkphire.VerifyingKey),
		anonBase: fmt.Sprintf("anon-%d-%d", os.Getpid(), time.Now().UnixNano()),
		closed:   make(chan struct{}),
	}
	if c.jnl != nil {
		for id, spec := range c.jnl.Circuits() {
			c.specs[id] = spec
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("POST /circuits", c.handleCircuits)
	mux.HandleFunc("POST /prove", c.handleProve)
	mux.HandleFunc("POST /verify", c.handleVerify)
	mux.HandleFunc("GET /healthz", c.handleHealthz)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("POST /cluster/join", c.handleJoin)
	mux.HandleFunc("POST /cluster/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /cluster/leave", c.handleLeave)
	mux.HandleFunc("POST /cluster/complete", c.handleComplete)
	mux.HandleFunc("GET /cluster/circuits/{id}", c.handleCircuitFetch)
	c.mux = mux

	c.wg.Add(1)
	//zkvet:ignore norawgo failure-detection monitor with a single owner; joined via wg.Wait in Close, exits on the closed channel
	go c.monitor()
	return c, nil
}

// Handler returns the coordinator's HTTP handler — client routes plus
// the /cluster/* control plane.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Metrics exposes the cluster counters for tests and embedding daemons.
func (c *Coordinator) Metrics() *Metrics { return c.metrics }

// WorkersLive reports the current pool size.
func (c *Coordinator) WorkersLive() int { return c.members.size() }

// InflightJobs reports unsettled jobs.
func (c *Coordinator) InflightJobs() int { return c.jobs.inflight() }

// Recover spawns a background re-prove for every pending journal record,
// exactly like the single-node RecoverJournal except the proving happens
// on whichever workers are (or become) live — recovery jobs wait for the
// pool instead of failing when it is momentarily empty. It returns the
// number of jobs spawned; they settle asynchronously.
func (c *Coordinator) Recover() (spawned int, err error) {
	if c.jnl == nil {
		return 0, nil
	}
	for _, rec := range c.jnl.Pending() {
		c.specMu.Lock()
		_, haveSpec := c.specs[rec.CircuitID]
		c.specMu.Unlock()
		if !haveSpec {
			if jerr := c.jnl.Fail(rec.Key, "recover: circuit spec missing from journal"); jerr != nil {
				return spawned, jerr
			}
			continue
		}
		timeoutMS := int(c.clampTimeout(time.Duration(rec.TimeoutMS)*time.Millisecond) / time.Millisecond)
		j, created := c.jobs.getOrCreate(rec.Key, rec.CircuitID, timeoutMS, true)
		if !created {
			continue
		}
		c.spawnJob(j)
		spawned++
	}
	return spawned, nil
}

// Drain stops admission and waits for in-flight jobs to settle (or ctx
// to end — unsettled keyed jobs stay pending in the journal for the next
// start, the same contract as the single-node daemon).
func (c *Coordinator) Drain(ctx context.Context) error {
	c.draining.Store(true)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if c.jobs.inflight() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close stops the monitor and every job loop. Idempotent.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.wg.Wait()
	})
}

func (c *Coordinator) clampTimeout(d time.Duration) time.Duration {
	if d <= 0 {
		return c.cfg.DefaultTimeout
	}
	if d > c.cfg.MaxTimeout {
		return c.cfg.MaxTimeout
	}
	return d
}

// leaseDuration bounds one dispatch attempt for a job with the given
// prove timeout.
func (c *Coordinator) leaseDuration(timeoutMS int) time.Duration {
	if c.cfg.LeaseTimeout > 0 {
		return c.cfg.LeaseTimeout
	}
	return time.Duration(timeoutMS)*time.Millisecond + 15*time.Second
}

// monitor is the failure detector: it sweeps the member table at half
// the heartbeat interval and evicts workers silent past EvictAfter.
// Eviction flips member.gone, which every lease watcher polls — that is
// the hand-off from failure detection to re-dispatch.
func (c *Coordinator) monitor() {
	defer c.wg.Done()
	period := c.cfg.HeartbeatInterval / 2
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-tick.C:
		}
		for range c.members.evictStale(time.Now(), c.cfg.EvictAfter) {
			c.metrics.WorkerEvictionsTotal.Add(1)
		}
	}
}

// spawnJob starts the dispatch loop that owns j until it settles.
func (c *Coordinator) spawnJob(j *job) {
	c.wg.Add(1)
	//zkvet:ignore norawgo per-job dispatch loop; joined via wg.Wait in Close, exits when the job settles or the coordinator closes
	go c.runJob(j)
}

// runJob drives one job to settlement: pick the least-loaded worker,
// dispatch a lease, watch it, and re-dispatch when the lease is lost —
// to eviction, the lease deadline, a transient worker failure, or a
// dispatch RPC that never took. MaxAttempts bounds the loop; running out
// settles the job as failed so clients are not strung along forever.
func (c *Coordinator) runJob(j *job) {
	defer c.wg.Done()
	var excludeID string
	for !j.isSettled() {
		select {
		case <-c.closed:
			return
		default:
		}
		if j.dispatches() >= c.cfg.MaxAttempts {
			c.failJob(j, fmt.Sprintf("job %s: no success after %d dispatch attempts", j.id, j.dispatches()))
			return
		}
		m := c.members.pick(map[string]bool{excludeID: true})
		if m == nil {
			// Empty pool, only the excluded worker, or every member already
			// at capacity: wait for joins or completions rather than burning
			// attempts. Recovery jobs ride this path until the first worker
			// registers; backlogs ride it until a lease frees up.
			excludeID = ""
			select {
			case <-c.closed:
				return
			case <-j.done:
				return
			case <-time.After(50 * time.Millisecond):
			}
			continue
		}
		epoch := j.lease()
		if epoch > 0 {
			c.metrics.JobsRedispatchedTotal.Add(1)
		}
		if err := c.dispatch(m, j, epoch); err != nil {
			m.release()
			c.metrics.DispatchErrorsTotal.Add(1)
			// The lease never (observably) started; fence it so a worker
			// that did receive the request past our timeout cannot settle
			// a lease we have given up on.
			j.loseLease(epoch)
			excludeID = m.id
			continue
		}
		c.metrics.JobsDispatchedTotal.Add(1)
		if c.watchLease(j, m, epoch) {
			return
		}
		excludeID = m.id
	}
}

// watchLease waits out one lease. It returns true when the job settled
// (or the coordinator is closing) and false when the lease was lost and
// the caller should re-dispatch.
func (c *Coordinator) watchLease(j *job, m *member, epoch uint64) (settled bool) {
	deadline := time.Now().Add(c.leaseDuration(j.timeoutMS))
	var hedgeAt time.Time
	if c.cfg.HedgeDelay > 0 {
		hedgeAt = time.Now().Add(c.cfg.HedgeDelay)
	}
	hedged := false
	for {
		select {
		case <-j.done:
			return true
		case <-c.closed:
			return true
		case <-time.After(25 * time.Millisecond):
		}
		if j.leaseLost(epoch) {
			// A transient completion (or a racing watcher) already fenced
			// this lease.
			return false
		}
		if m.gone.Load() || time.Now().After(deadline) {
			j.loseLease(epoch)
			return false
		}
		if !hedged && !hedgeAt.IsZero() && time.Now().After(hedgeAt) {
			hedged = true
			if m2 := c.members.pick(map[string]bool{m.id: true}); m2 != nil {
				e2 := j.lease()
				// Deliberately no loseLease on failure: fencing is a lower
				// bound, and invalidating e2 would invalidate the primary
				// lease under it. An undelivered hedge epoch simply never
				// completes.
				if err := c.dispatch(m2, j, e2); err != nil {
					m2.release()
					c.metrics.DispatchErrorsTotal.Add(1)
				} else {
					c.metrics.JobsDispatchedTotal.Add(1)
					c.metrics.JobsHedgedTotal.Add(1)
				}
			}
		}
	}
}

// failJob settles j as permanently failed, bypassing the fence (no lease
// may ever complete it — attempts are exhausted).
func (c *Coordinator) failJob(j *job, msg string) {
	j.mu.Lock()
	if j.settled {
		j.mu.Unlock()
		return
	}
	if j.keyed && c.jnl != nil {
		if jerr := c.jnl.Fail(j.id, msg); jerr != nil {
			// Leave the record pending: the next start re-proves it, which
			// is strictly safer than losing it.
			j.mu.Unlock()
			return
		}
	}
	j.settled = true
	j.errMsg = msg
	close(j.done)
	j.mu.Unlock()
	c.metrics.JobsFailedTotal.Add(1)
}

// dispatch posts one lease to a worker whose slot pick already reserved;
// on error the caller releases it.
func (c *Coordinator) dispatch(m *member, j *job, epoch uint64) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return retry.PostJSON(ctx, c.client, m.addr+"/cluster/dispatch", DispatchRequest{
		JobID:     j.id,
		CircuitID: j.circuitID,
		Epoch:     epoch,
		TimeoutMS: j.timeoutMS,
	}, nil, c.cfg.Retry)
}

// unavailable answers 503 with a Retry-After of one heartbeat interval —
// the cadence at which the pool can have changed — rounded up to whole
// seconds, so never below 1 (New makes the interval positive).
func (c *Coordinator) unavailable(w http.ResponseWriter, format string, args ...any) {
	secs := int((c.cfg.HeartbeatInterval + time.Second - 1) / time.Second)
	service.FailRetryAfter(w, http.StatusServiceUnavailable, secs, format, args...)
}

// ---- control-plane handlers -------------------------------------------

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !service.Decode(w, r, &req) {
		return
	}
	if req.Addr == "" {
		service.Fail(w, http.StatusBadRequest, "join: addr is required")
		return
	}
	m := c.members.join(req.Addr, req.Workers, time.Now())
	c.metrics.WorkerJoinsTotal.Add(1)
	service.OK(w, JoinResponse{
		WorkerID:    m.id,
		HeartbeatMS: int(c.cfg.HeartbeatInterval / time.Millisecond),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !service.Decode(w, r, &req) {
		return
	}
	if !c.members.heartbeat(req.WorkerID, time.Now()) {
		// Evicted (or never joined): the worker must rejoin for a fresh
		// identity — its old leases stay fenced.
		service.Fail(w, http.StatusNotFound, "unknown worker %q — rejoin", req.WorkerID)
		return
	}
	service.OK(w, struct{}{})
}

func (c *Coordinator) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req LeaveRequest
	if !service.Decode(w, r, &req) {
		return
	}
	if c.members.remove(req.WorkerID) != nil {
		c.metrics.WorkerLeavesTotal.Add(1)
	}
	service.OK(w, struct{}{})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !service.Decode(w, r, &req) {
		return
	}
	if m, ok := c.members.get(req.WorkerID); ok {
		m.release()
	}
	j, ok := c.jobs.get(req.JobID)
	if !ok {
		// A completion for a job this incarnation never dispatched (the
		// previous process's anon job, or long-settled state). 2xx stops
		// the worker's retry loop; there is nothing to apply it to.
		service.OK(w, struct{}{})
		return
	}
	if req.Error != "" && req.Transient {
		// The worker could not run the lease (queue full, injected
		// transient fault, fetch failure): fence it so the watcher
		// re-dispatches immediately instead of waiting out the deadline.
		if j.loseLease(req.Epoch) {
			c.metrics.ResultsFencedTotal.Add(1)
		}
		service.OK(w, struct{}{})
		return
	}
	var proof []byte
	if req.Error == "" {
		var err error
		if proof, err = base64.StdEncoding.DecodeString(req.Proof); err != nil {
			service.Fail(w, http.StatusBadRequest, "complete: proof is not base64: %v", err)
			return
		}
	}
	outcome, err := j.settle(req.Epoch, proof, req.Error, c.jnl)
	if err != nil {
		// Journal write failed; the job stays unsettled and the worker
		// retries the completion.
		service.Fail(w, http.StatusInternalServerError, "%v", err)
		return
	}
	switch outcome {
	case outcomeSettled:
		if req.Error == "" {
			c.metrics.JobsCompletedTotal.Add(1)
		} else {
			c.metrics.JobsFailedTotal.Add(1)
		}
	case outcomeFenced:
		c.metrics.ResultsFencedTotal.Add(1)
	case outcomeDuplicate:
		c.metrics.ResultsDuplicateTotal.Add(1)
	}
	service.OK(w, struct{}{})
}

func (c *Coordinator) handleCircuitFetch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	c.specMu.Lock()
	spec, ok := c.specs[id]
	c.specMu.Unlock()
	if !ok {
		service.Fail(w, http.StatusNotFound, "circuit %s not stored on this coordinator", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(spec)
}

// ---- client-facing handlers -------------------------------------------

// registerOnWorker relays a registration to a live worker — the
// coordinator never preprocesses, so worker pools are where verifying
// keys come from.
func (c *Coordinator) registerOnWorker(ctx context.Context, spec *service.CircuitSpec) (*service.RegisterResponse, error) {
	m := c.members.pick(nil)
	if m == nil {
		return nil, errNoWorkers
	}
	defer m.release() // preprocessing holds the slot only while it runs
	var resp service.RegisterResponse
	if err := retry.PostJSON(ctx, c.client, m.addr+"/circuits", spec, &resp, c.cfg.Retry); err != nil {
		return nil, err
	}
	return &resp, nil
}

var errNoWorkers = errors.New("cluster: no live workers")

func (c *Coordinator) handleCircuits(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		c.unavailable(w, "draining: not accepting new circuits")
		return
	}
	var spec service.CircuitSpec
	if !service.Decode(w, r, &spec) {
		return
	}
	resp, err := c.registerOnWorker(r.Context(), &spec)
	if err != nil {
		var se *retry.StatusError
		switch {
		case errors.Is(err, errNoWorkers):
			c.unavailable(w, "no live workers to preprocess on — retry once the pool has members")
		case errors.As(err, &se):
			// Pass the worker's verdict (400/422/...) through verbatim.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(se.StatusCode)
			fmt.Fprint(w, se.Body)
		default:
			service.Fail(w, http.StatusBadGateway, "register on worker: %v", err)
		}
		return
	}
	raw, err := json.Marshal(&spec)
	if err != nil {
		service.Fail(w, http.StatusInternalServerError, "encode spec: %v", err)
		return
	}
	var vk *zkphire.VerifyingKey
	if vkBytes, derr := base64.StdEncoding.DecodeString(resp.VerifyingKey); derr == nil {
		vk, _ = zkphire.UnmarshalVerifyingKey(vkBytes)
	}
	c.specMu.Lock()
	c.specs[resp.CircuitID] = raw
	if vk != nil {
		c.vks[resp.CircuitID] = vk
	}
	c.specMu.Unlock()
	if c.jnl != nil {
		if jerr := c.jnl.RecordCircuit(resp.CircuitID, raw); jerr != nil {
			service.Fail(w, http.StatusInternalServerError, "journal circuit: %v", jerr)
			return
		}
	}
	service.OK(w, resp)
}

func (c *Coordinator) handleProve(w http.ResponseWriter, r *http.Request) {
	if c.draining.Load() {
		c.unavailable(w, "draining: not accepting new proofs")
		return
	}
	var req service.ProveRequest
	if !service.Decode(w, r, &req) {
		return
	}
	keyed := c.jnl != nil && req.IdempotencyKey != ""
	if keyed {
		if rec, ok := c.jnl.Lookup(req.IdempotencyKey); ok {
			switch rec.State {
			case journal.StateDone:
				c.metrics.ReplaysTotal.Add(1)
				service.OK(w, service.ProveResponse{
					CircuitID:  rec.CircuitID,
					Proof:      base64.StdEncoding.EncodeToString(rec.Proof),
					ProofBytes: len(rec.Proof),
					Replayed:   true,
				})
				return
			case journal.StatePending:
				if j, ok := c.jobs.get(req.IdempotencyKey); ok {
					// Attach: the job is in flight on this coordinator, so
					// wait for it instead of bouncing the client.
					c.awaitJob(w, r, j)
					return
				}
				service.Fail(w, http.StatusConflict, "job %q already in flight — retry after it settles", req.IdempotencyKey)
				return
			}
			// StateFailed falls through: the retry re-accepts the key. The
			// settled job must leave the table first, or getOrCreate would
			// attach to it and serve the stale failure forever.
			if j, ok := c.jobs.get(req.IdempotencyKey); ok && j.isSettled() {
				c.jobs.remove(req.IdempotencyKey)
			}
		}
	}
	c.specMu.Lock()
	specRaw, known := c.specs[req.CircuitID]
	c.specMu.Unlock()
	if !known {
		service.Fail(w, http.StatusNotFound, "circuit %s not registered — POST /circuits first", req.CircuitID)
		return
	}
	timeoutMS := int(c.clampTimeout(time.Duration(req.TimeoutMS)*time.Millisecond) / time.Millisecond)
	jobID := req.IdempotencyKey
	if jobID == "" {
		jobID = fmt.Sprintf("%s-%d", c.anonBase, c.anonSeq.Add(1))
	}
	j, created := c.jobs.getOrCreate(jobID, req.CircuitID, timeoutMS, keyed)
	if created {
		if keyed {
			// Accept requires the circuit journaled, but boot-time
			// compaction drops circuits no pending job references while
			// this coordinator keeps serving them from its preloaded
			// spec table. Re-journal first — a no-op when the circuit
			// record is already present.
			err := c.jnl.RecordCircuit(req.CircuitID, specRaw)
			if err == nil {
				err = c.jnl.Accept(req.IdempotencyKey, req.CircuitID, req.TimeoutMS)
			}
			if err != nil {
				c.jobs.remove(jobID)
				if errors.Is(err, journal.ErrDuplicateKey) {
					service.Fail(w, http.StatusConflict, "job %q already in flight — retry after it settles", req.IdempotencyKey)
				} else {
					service.Fail(w, http.StatusInternalServerError, "journal accept: %v", err)
				}
				return
			}
		}
		c.metrics.JobsAcceptedTotal.Add(1)
		c.spawnJob(j)
	}
	c.awaitJob(w, r, j)
}

// awaitJob parks one /prove request on a job until it settles, the job's
// own timeout passes, or the client goes away. The job keeps running
// after a timeout — a keyed retry will attach or replay.
func (c *Coordinator) awaitJob(w http.ResponseWriter, r *http.Request, j *job) {
	wait := time.Duration(j.timeoutMS)*time.Millisecond + 5*time.Second
	select {
	case <-j.done:
	case <-time.After(wait):
		service.Fail(w, http.StatusGatewayTimeout, "job %s still unfinished after %v — it keeps running; retry with the same idempotency key", j.id, wait)
		return
	case <-r.Context().Done():
		service.Fail(w, service.StatusClientClosedRequest, "request abandoned; job %s keeps running", j.id)
		return
	case <-c.closed:
		c.unavailable(w, "coordinator shutting down")
		return
	}
	proof, errMsg := j.result()
	if errMsg != "" {
		service.Fail(w, http.StatusInternalServerError, "prove: %s", errMsg)
		return
	}
	service.OK(w, service.ProveResponse{
		CircuitID:  j.circuitID,
		Proof:      base64.StdEncoding.EncodeToString(proof),
		ProofBytes: len(proof),
	})
}

// vkFor resolves a circuit's verifying key, lazily re-deriving it via a
// worker registration when this incarnation has never seen it (the spec
// survives restarts in the journal; the VK does not).
func (c *Coordinator) vkFor(ctx context.Context, circuitID string) (*zkphire.VerifyingKey, error) {
	c.specMu.Lock()
	vk, ok := c.vks[circuitID]
	raw, haveSpec := c.specs[circuitID]
	c.specMu.Unlock()
	if ok {
		return vk, nil
	}
	if !haveSpec {
		return nil, fmt.Errorf("circuit %s not registered", circuitID)
	}
	var spec service.CircuitSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("stored spec for %s: %w", circuitID, err)
	}
	resp, err := c.registerOnWorker(ctx, &spec)
	if err != nil {
		return nil, err
	}
	vkBytes, err := base64.StdEncoding.DecodeString(resp.VerifyingKey)
	if err != nil {
		return nil, fmt.Errorf("worker verifying key: %w", err)
	}
	if vk, err = zkphire.UnmarshalVerifyingKey(vkBytes); err != nil {
		return nil, err
	}
	c.specMu.Lock()
	c.vks[circuitID] = vk
	c.specMu.Unlock()
	return vk, nil
}

func (c *Coordinator) handleVerify(w http.ResponseWriter, r *http.Request) {
	service.ServeVerify(w, r, c.cfg.SRS, func(id string) *zkphire.VerifyingKey {
		vk, err := c.vkFor(r.Context(), id)
		if err != nil {
			service.Fail(w, http.StatusNotFound, "verifying key: %v", err)
			return nil
		}
		return vk
	})
}

// ClusterHealth is the coordinator's /healthz payload.
type ClusterHealth struct {
	Status        string  `json:"status"`
	Role          string  `json:"role"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	WorkersLive   int     `json:"workers_live"`
	JobsInflight  int     `json:"jobs_inflight"`
	Circuits      int     `json:"circuits"`
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if c.draining.Load() {
		status = "draining"
	}
	c.specMu.Lock()
	circuits := len(c.specs)
	c.specMu.Unlock()
	service.OK(w, ClusterHealth{
		Status:        status,
		Role:          "coordinator",
		UptimeSeconds: time.Since(c.start).Seconds(),
		WorkersLive:   c.members.size(),
		JobsInflight:  c.jobs.inflight(),
		Circuits:      circuits,
	})
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	now := time.Now()
	members := c.members.snapshot()
	ages := make([]heartbeatAge, 0, len(members))
	for _, m := range members {
		ages = append(ages, heartbeatAge{WorkerID: m.id, Seconds: m.beatAge(now).Seconds()})
	}
	c.metrics.writePrometheus(w, len(members), ages)
}
