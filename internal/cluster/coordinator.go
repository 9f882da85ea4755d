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
	// single-node daemon — it is the same front-end: accepted before
	// dispatch, completed before the client sees the proof, re-run by
	// StartRecovery after a restart. The caller owns open/close.
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
	// DefaultTimeout is the front-end's (service.Config.DefaultTimeout).
	DefaultTimeout time.Duration
}

// Coordinator is the client front-end (the embedded service.Server: the
// five client routes, keys, journal, drain, recovery) over a pool of
// remote workers, with the /cluster/* control plane mounted beside it.
// Construct with New, mount Handler, call StartRecovery after a restart,
// Drain then Close on shutdown.
type Coordinator struct {
	*service.Server
	pool *pool
}

// pool is the remote service.Backend: it decides which worker runs a job
// and which lease may settle it, and nothing about keys or the journal.
type pool struct {
	cfg     Config
	members *memberTable
	jobs    *jobTable
	metrics *Metrics

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

	closed chan struct{} // stops the monitor
	wg     sync.WaitGroup
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
	p := &pool{
		cfg:      cfg,
		members:  newMemberTable(),
		jobs:     &jobTable{jobs: make(map[string]*job)},
		metrics:  &Metrics{},
		specs:    make(map[string][]byte),
		vks:      make(map[string]*zkphire.VerifyingKey),
		anonBase: fmt.Sprintf("anon-%d-%d", os.Getpid(), time.Now().UnixNano()),
		closed:   make(chan struct{}),
	}
	if cfg.Journal != nil {
		for id, spec := range cfg.Journal.Circuits() {
			p.specs[id] = spec
		}
	}
	srv := service.NewServer(p, cfg.SRS, cfg.Journal, cfg.DefaultTimeout)
	srv.Handle("POST /cluster/join", p.handleJoin)
	srv.Handle("POST /cluster/heartbeat", p.handleHeartbeat)
	srv.Handle("POST /cluster/leave", p.handleLeave)
	srv.Handle("POST /cluster/complete", p.handleComplete)
	srv.Handle("GET /cluster/circuits/{id}", p.handleCircuitFetch)

	p.wg.Add(1)
	//zkvet:ignore norawgo failure-detection monitor with a single owner; joined via wg.Wait in Close, exits on the closed channel
	go p.monitor()
	return &Coordinator{Server: srv, pool: p}, nil
}

// Metrics exposes the cluster counters for tests and embedding daemons.
func (c *Coordinator) Metrics() *Metrics { return c.pool.metrics }

// WorkersLive reports the current pool size.
func (c *Coordinator) WorkersLive() int { return c.pool.members.size() }

// Close implements service.Backend: it stops the monitor. The front-end
// has already cancelled and joined every job.
func (p *pool) Close() {
	close(p.closed)
	p.wg.Wait()
}

// leaseDuration bounds one dispatch attempt for a job with the given
// prove timeout.
func (p *pool) leaseDuration(timeoutMS int) time.Duration {
	if p.cfg.LeaseTimeout > 0 {
		return p.cfg.LeaseTimeout
	}
	return time.Duration(timeoutMS)*time.Millisecond + 15*time.Second
}

// monitor is the failure detector: it sweeps the member table at half
// the heartbeat interval and evicts workers silent past EvictAfter.
// Eviction flips member.gone, which every lease watcher polls — that is
// the hand-off from failure detection to re-dispatch.
func (p *pool) monitor() {
	defer p.wg.Done()
	period := p.cfg.HeartbeatInterval / 2
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-p.closed:
			return
		case <-tick.C:
		}
		for range p.members.evictStale(time.Now(), p.cfg.EvictAfter) {
			p.metrics.WorkerEvictionsTotal.Add(1)
		}
	}
}

// Prove implements service.Backend: it drives one job to settlement —
// pick the least-loaded worker, dispatch a lease, watch it, and
// re-dispatch when the lease is lost — to eviction, the lease deadline, a
// transient worker failure, or a dispatch RPC that never took.
// MaxAttempts bounds the loop; running out settles the job as failed so
// clients are not strung along forever. If ctx ends first the job is
// dropped: whatever its leases send back later finds no job.
func (p *pool) Prove(ctx context.Context, key, circuitID string, timeout time.Duration) ([]byte, int, error) {
	id := key
	if id == "" {
		id = fmt.Sprintf("%s-%d", p.anonBase, p.anonSeq.Add(1))
	}
	j := newJob(id, circuitID, int(timeout/time.Millisecond))
	p.jobs.put(j)
	p.metrics.JobsAcceptedTotal.Add(1)
	var excludeID string
	for !j.isSettled() {
		if ctx.Err() != nil {
			p.jobs.remove(j)
			return nil, 0, ctx.Err()
		}
		if n := j.dispatches(); n >= p.cfg.MaxAttempts {
			j.settle(noFence, nil, fmt.Sprintf("job %s: no success after %d dispatch attempts", j.id, n))
			break
		}
		m := p.members.pick(map[string]bool{excludeID: true})
		if m == nil {
			// Empty pool, only the excluded worker, or every member already
			// at capacity: wait for joins or completions rather than burning
			// attempts. Recovery jobs ride this path until the first worker
			// registers; backlogs ride it until a lease frees up.
			excludeID = ""
			select {
			case <-ctx.Done():
			case <-j.done:
			case <-time.After(50 * time.Millisecond):
			}
			continue
		}
		epoch, deadline := j.lease(p.leaseDuration(j.timeoutMS))
		if epoch > 0 {
			p.metrics.JobsRedispatchedTotal.Add(1)
		}
		if err := p.dispatch(m, j, epoch); err != nil {
			m.release()
			p.metrics.DispatchErrorsTotal.Add(1)
			// The lease never (observably) started; fence it so a worker
			// that did receive the request past our timeout cannot settle
			// a lease we have given up on.
			j.loseLease(epoch)
			excludeID = m.id
			continue
		}
		p.metrics.JobsDispatchedTotal.Add(1)
		p.watchLease(ctx, j, m, epoch, deadline)
		excludeID = m.id
	}
	// Count the outcome here, before the front-end sees it: a client that
	// holds the proof must find it counted.
	proof, errMsg, linger := j.take()
	time.AfterFunc(linger, func() { p.jobs.remove(j) })
	if errMsg != "" {
		p.metrics.JobsFailedTotal.Add(1)
		return nil, 0, errors.New(errMsg)
	}
	p.metrics.JobsCompletedTotal.Add(1)
	return proof, 0, nil
}

// watchLease waits out one lease: it returns when the job settles, ctx
// ends, or the lease is lost and the caller should re-dispatch.
func (p *pool) watchLease(ctx context.Context, j *job, m *member, epoch uint64, deadline time.Time) {
	var hedgeAt time.Time
	if p.cfg.HedgeDelay > 0 {
		hedgeAt = time.Now().Add(p.cfg.HedgeDelay)
	}
	hedged := false
	for {
		select {
		case <-j.done:
			return
		case <-ctx.Done():
			return
		case <-time.After(25 * time.Millisecond):
		}
		if j.leaseLost(epoch) {
			// A transient completion (or a racing watcher) already fenced
			// this lease.
			return
		}
		if m.gone.Load() || time.Now().After(deadline) {
			j.loseLease(epoch)
			return
		}
		if !hedged && !hedgeAt.IsZero() && time.Now().After(hedgeAt) {
			hedged = true
			if m2 := p.members.pick(map[string]bool{m.id: true}); m2 != nil {
				e2, _ := j.lease(p.leaseDuration(j.timeoutMS))
				// Deliberately no loseLease on failure: fencing is a lower
				// bound, and invalidating e2 would invalidate the primary
				// lease under it. An undelivered hedge epoch simply never
				// completes.
				if err := p.dispatch(m2, j, e2); err != nil {
					m2.release()
					p.metrics.DispatchErrorsTotal.Add(1)
				} else {
					p.metrics.JobsDispatchedTotal.Add(1)
					p.metrics.JobsHedgedTotal.Add(1)
				}
			}
		}
	}
}

// dispatch posts one lease to a worker whose slot pick already reserved;
// on error the caller releases it.
func (p *pool) dispatch(m *member, j *job, epoch uint64) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return retry.PostJSON(ctx, nil, m.addr+"/cluster/dispatch", DispatchRequest{
		JobID:     j.id,
		CircuitID: j.circuitID,
		Epoch:     epoch,
		TimeoutMS: j.timeoutMS,
	}, nil, retry.Policy{})
}

// RetryAfter implements service.Backend: one heartbeat interval — the
// cadence at which the pool can have changed — rounded up to whole
// seconds, so never below 1 (New makes the interval positive).
func (p *pool) RetryAfter() int {
	return int((p.cfg.HeartbeatInterval + time.Second - 1) / time.Second)
}

// ---- control-plane handlers -------------------------------------------

func (p *pool) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req JoinRequest
	if !service.Decode(w, r, &req) {
		return
	}
	if req.Addr == "" {
		service.Fail(w, http.StatusBadRequest, "join: addr is required")
		return
	}
	m := p.members.join(req.Addr, req.Workers, time.Now())
	p.metrics.WorkerJoinsTotal.Add(1)
	service.OK(w, JoinResponse{
		WorkerID:    m.id,
		HeartbeatMS: int(p.cfg.HeartbeatInterval / time.Millisecond),
	})
}

func (p *pool) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if !service.Decode(w, r, &req) {
		return
	}
	if !p.members.heartbeat(req.WorkerID, time.Now()) {
		// Evicted (or never joined): the worker must rejoin for a fresh
		// identity — its old leases stay fenced.
		service.Fail(w, http.StatusNotFound, "unknown worker %q — rejoin", req.WorkerID)
		return
	}
	service.OK(w, struct{}{})
}

func (p *pool) handleLeave(w http.ResponseWriter, r *http.Request) {
	var req LeaveRequest
	if !service.Decode(w, r, &req) {
		return
	}
	if p.members.remove(req.WorkerID) != nil {
		p.metrics.WorkerLeavesTotal.Add(1)
	}
	service.OK(w, struct{}{})
}

func (p *pool) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !service.Decode(w, r, &req) {
		return
	}
	if m, ok := p.members.get(req.WorkerID); ok {
		m.release()
	}
	j, ok := p.jobs.get(req.JobID)
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
			p.metrics.ResultsFencedTotal.Add(1)
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
	// A settled outcome is counted by Prove, which hands it to the
	// front-end.
	switch j.settle(req.Epoch, proof, req.Error) {
	case outcomeFenced:
		p.metrics.ResultsFencedTotal.Add(1)
	case outcomeDuplicate:
		p.metrics.ResultsDuplicateTotal.Add(1)
	}
	service.OK(w, struct{}{})
}

func (p *pool) handleCircuitFetch(w http.ResponseWriter, r *http.Request) {
	spec, err := p.Spec(r.PathValue("id"))
	if err != nil {
		service.Fail(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(spec)
}

// ---- the rest of service.Backend -----------------------------------------

// Register implements service.Backend: it relays the registration to a
// live worker — the coordinator never preprocesses, so worker pools are
// where verifying keys come from — then keeps the key, and the spec for
// replication to the workers that will prove it.
func (p *pool) Register(ctx context.Context, spec *service.CircuitSpec) (*service.RegisterResponse, error) {
	m := p.members.pick(nil)
	if m == nil {
		return nil, service.Errorf(http.StatusServiceUnavailable, "no live workers to preprocess on — retry once the pool has members")
	}
	defer m.release() // preprocessing holds the slot only while it runs
	var resp service.RegisterResponse
	if err := retry.PostJSON(ctx, nil, m.addr+"/circuits", spec, &resp, retry.Policy{}); err != nil {
		var se *retry.StatusError
		if !errors.As(err, &se) { // a worker's own verdict passes through
			err = service.Errorf(http.StatusBadGateway, "register on worker: %v", err)
		}
		return nil, err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("encode spec: %w", err)
	}
	vkBytes, err := base64.StdEncoding.DecodeString(resp.VerifyingKey)
	if err != nil {
		return nil, fmt.Errorf("worker verifying key: %w", err)
	}
	vk, err := zkphire.UnmarshalVerifyingKey(vkBytes)
	if err != nil {
		return nil, fmt.Errorf("worker verifying key: %w", err)
	}
	p.specMu.Lock()
	p.specs[resp.CircuitID], p.vks[resp.CircuitID] = raw, vk
	p.specMu.Unlock()
	return &resp, nil
}

// Spec implements service.Backend from the replication store.
func (p *pool) Spec(circuitID string) ([]byte, error) {
	p.specMu.Lock()
	defer p.specMu.Unlock()
	if raw, ok := p.specs[circuitID]; ok {
		return raw, nil
	}
	return nil, service.Errorf(http.StatusNotFound, "circuit %s not registered — POST /circuits first", circuitID)
}

// VerifyingKey implements service.Backend, re-registering the stored spec
// when this incarnation has never seen the key (the spec survives
// restarts in the journal; the VK does not).
func (p *pool) VerifyingKey(ctx context.Context, circuitID string) (*zkphire.VerifyingKey, error) {
	cached := func() *zkphire.VerifyingKey {
		p.specMu.Lock()
		defer p.specMu.Unlock()
		return p.vks[circuitID]
	}
	if vk := cached(); vk != nil {
		return vk, nil
	}
	raw, err := p.Spec(circuitID)
	var spec service.CircuitSpec
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err == nil {
		_, err = p.Register(ctx, &spec)
	}
	if vk := cached(); vk != nil {
		return vk, nil
	}
	return nil, service.Errorf(http.StatusNotFound, "verifying key of circuit %s: %v", circuitID, err)
}

// Replayed implements service.Backend.
func (p *pool) Replayed() { p.metrics.ReplaysTotal.Add(1) }

// ClusterHealth is the coordinator's /healthz payload.
type ClusterHealth struct {
	service.Health
	Role         string `json:"role"`
	WorkersLive  int    `json:"workers_live"`
	JobsInflight int    `json:"jobs_inflight"`
	Circuits     int    `json:"circuits"`
}

// Health implements service.Backend.
func (p *pool) Health(h service.Health, jobs int) any {
	p.specMu.Lock()
	circuits := len(p.specs)
	p.specMu.Unlock()
	return ClusterHealth{Health: h, Role: "coordinator", WorkersLive: p.members.size(), JobsInflight: jobs, Circuits: circuits}
}
