package cluster

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
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
	// revoked and its jobs re-dispatched.
	EvictAfter time.Duration
	// LeaseTimeout bounds one dispatch attempt end to end; a lease older
	// than this is revoked and the job re-dispatched (0 = the job's
	// timeout plus 15 s of dispatch slack).
	LeaseTimeout time.Duration
	// HedgeDelay, when positive, issues a second lease on a different
	// worker for any job still unfinished after this long; the first
	// answer wins and the other lease is cancelled.
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

// pool is the remote service.Backend: it decides which worker runs a job,
// and nothing about keys or the journal.
type pool struct {
	cfg     Config
	members *memberTable
	metrics *Metrics

	// specs is the replication store behind GET /cluster/circuits/{id}:
	// raw spec JSON by content hash, seeded from the journal on restart.
	// vks caches verifying keys obtained from worker registrations.
	specMu sync.Mutex
	specs  map[string][]byte
	vks    map[string]*zkphire.VerifyingKey

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
		cfg:     cfg,
		members: newMemberTable(),
		metrics: &Metrics{},
		specs:   make(map[string][]byte),
		vks:     make(map[string]*zkphire.VerifyingKey),
		closed:  make(chan struct{}),
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
// has already cancelled and joined every job, and each job its leases.
func (p *pool) Close() {
	close(p.closed)
	p.wg.Wait()
}

// leaseDuration bounds one dispatch attempt for a job with the given
// prove timeout.
func (p *pool) leaseDuration(timeout time.Duration) time.Duration {
	if p.cfg.LeaseTimeout > 0 {
		return p.cfg.LeaseTimeout
	}
	return timeout + 15*time.Second
}

// monitor is the failure detector: it sweeps the member table at half
// the heartbeat interval and evicts workers silent past EvictAfter.
// Eviction cancels member.ctx, which revokes every lease on the worker —
// that is the hand-off from failure detection to re-dispatch.
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

// Prove implements service.Backend: it drives one job to settlement and
// counts the outcome before the front-end sees it — a client that holds
// the proof must find it counted.
func (p *pool) Prove(ctx context.Context, _, circuitID string, timeout time.Duration) ([]byte, int, error) {
	p.metrics.JobsAcceptedTotal.Add(1)
	proof, err := p.lease(ctx, circuitID, timeout)
	switch {
	case err == nil:
		p.metrics.JobsCompletedTotal.Add(1)
		return proof, 0, nil
	case ctx.Err() == nil:
		p.metrics.JobsFailedTotal.Add(1)
	}
	return nil, 0, err
}

// answer is how one dispatch attempt ended.
type answer struct {
	m     *member
	proof []byte
	err   error
	// final marks err as the worker's verdict on the job, not on the
	// lease: no other worker is tried.
	final bool
}

// lease runs the job's dispatch attempts: pick the least-loaded worker,
// lease it the job, and re-dispatch to another worker when the lease was
// transient — revoked, refused with 429/503, or lost in transport. The
// first successful answer settles the job; any other error status fails
// it. With hedging on, a job still unanswered after HedgeDelay gets a
// second, concurrent lease on a different worker. MaxAttempts bounds the
// dispatches, hedges included. When lease returns, every attempt still
// running has been cancelled and has returned its slot.
func (p *pool) lease(ctx context.Context, circuitID string, timeout time.Duration) ([]byte, error) {
	ctx, cancel := context.WithCancel(ctx)
	answers := make(chan answer)
	running, settled := 0, false
	defer func() {
		cancel()
		for ; running > 0; running-- {
			if a := <-answers; a.err == nil && settled {
				p.metrics.ResultsDuplicateTotal.Add(1)
			}
		}
	}()
	start := func(m *member) {
		running++
		//zkvet:ignore norawgo one goroutine per dispatch attempt, at most MaxAttempts per job; lease cancels and joins them before it returns
		go func() { answers <- p.dispatch(ctx, m, circuitID, timeout) }()
	}
	var (
		attempts int
		primary  *member // the worker of the latest lease; the hedge avoids it
		exclude  string  // the worker whose lease just failed
		hedge    <-chan time.Time
	)
	for {
		if running == 0 {
			if attempts >= p.cfg.MaxAttempts {
				return nil, fmt.Errorf("no success after %d dispatch attempts", attempts)
			}
			if primary = p.members.pick(map[string]bool{exclude: true}); primary == nil {
				// Empty pool, only the excluded worker, or every member
				// already at capacity: wait for joins or free slots rather
				// than burning attempts. Recovery jobs ride this path until
				// the first worker registers; backlogs ride it until a
				// lease frees up.
				exclude = ""
				select {
				case <-ctx.Done():
					return nil, ctx.Err()
				case <-time.After(50 * time.Millisecond):
				}
				continue
			}
			if attempts > 0 {
				p.metrics.JobsRedispatchedTotal.Add(1)
			}
			attempts++
			p.metrics.JobsDispatchedTotal.Add(1)
			start(primary)
			if p.cfg.HedgeDelay > 0 {
				hedge = time.After(p.cfg.HedgeDelay)
			}
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-hedge:
			hedge = nil
			if attempts < p.cfg.MaxAttempts {
				if m := p.members.pick(map[string]bool{primary.id: true}); m != nil {
					attempts++
					p.metrics.JobsDispatchedTotal.Add(1)
					p.metrics.JobsHedgedTotal.Add(1)
					start(m)
				}
			}
		case a := <-answers:
			running--
			switch {
			case a.err == nil:
				settled = true
				return a.proof, nil
			case ctx.Err() != nil:
				return nil, ctx.Err()
			case a.final:
				return nil, a.err
			}
			exclude = a.m.id
		}
	}
}

// dispatch is one lease: a POST /cluster/dispatch to m, on the slot pick
// reserved, that the worker answers with the proof. The request ends at
// the lease deadline and when m is evicted or leaves (m.ctx); either way
// the lease is revoked, the worker sees its request context end, and
// nothing it sends later can reach the job.
func (p *pool) dispatch(ctx context.Context, m *member, circuitID string, timeout time.Duration) answer {
	defer m.release()
	lctx, cancel := context.WithTimeout(ctx, p.leaseDuration(timeout))
	defer cancel()
	defer context.AfterFunc(m.ctx, cancel)()
	var resp DispatchResponse
	err := retry.PostJSON(lctx, nil, m.addr+"/cluster/dispatch", DispatchRequest{
		CircuitID: circuitID,
		TimeoutMS: int(timeout / time.Millisecond),
	}, &resp, retry.Policy{MaxAttempts: 1})
	var se *retry.StatusError
	switch {
	case err == nil:
		return answer{m: m, proof: resp.Proof}
	case ctx.Err() != nil:
		// The job settled on another lease, or its client left.
	case lctx.Err() != nil:
		p.metrics.LeasesRevokedTotal.Add(1)
		err = fmt.Errorf("lease on worker %s revoked: %w", m.id, err)
	case errors.As(err, &se) && se.StatusCode != http.StatusTooManyRequests && se.StatusCode != http.StatusServiceUnavailable:
		return answer{m: m, err: err, final: true}
	default:
		p.metrics.DispatchErrorsTotal.Add(1)
	}
	return answer{m: m, err: err}
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
	m := p.members.join(req.Addr, req.Slots, time.Now())
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
	if !p.members.heartbeat(req.WorkerID, req.Addr, time.Now()) {
		// Evicted, never joined, or the ID is another address's since a
		// coordinator restart: the worker must rejoin for a fresh identity.
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
	if p.members.remove(req.WorkerID, req.Addr) != nil {
		p.metrics.WorkerLeavesTotal.Add(1)
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
