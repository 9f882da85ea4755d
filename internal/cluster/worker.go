package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"zkphire/internal/faultinject"
	"zkphire/internal/retry"
	"zkphire/internal/service"
)

// WorkerConfig wires a worker agent to its coordinator.
type WorkerConfig struct {
	// Service is the local single-node prover the agent fronts. Required.
	Service *service.Server
	// CoordinatorURL is the coordinator's base URL. Required.
	CoordinatorURL string
}

// workerRetry shapes the join and circuit-fetch retries: 10 attempts
// backing off to 1 s, enough to ride out a coordinator mid-restart.
var workerRetry = retry.Policy{MaxAttempts: 10, BaseDelay: 20 * time.Millisecond, MaxDelay: time.Second}

// Worker is the agent that turns a single-node service into a pool
// member: it joins the coordinator, heartbeats, answers dispatches with
// proofs, and replicates circuits by content hash.
// Construct with NewWorker, mount Handler, Start, Close.
type Worker struct {
	cfg WorkerConfig
	svc *service.Server

	id        atomic.Value // string; empty until joined
	advertise atomic.Value // string; settable until Start
	// beatEvery is the heartbeat period in nanoseconds: 1 s until the join
	// response sets the coordinator's.
	beatEvery atomic.Int64

	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup
}

// NewWorker validates cfg and builds the agent (no I/O yet — Start
// joins).
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Service == nil {
		return nil, fmt.Errorf("cluster: WorkerConfig.Service is required")
	}
	if cfg.CoordinatorURL == "" {
		return nil, fmt.Errorf("cluster: WorkerConfig.CoordinatorURL is required")
	}
	w := &Worker{cfg: cfg, svc: cfg.Service, closed: make(chan struct{})}
	w.id.Store("")
	w.advertise.Store("")
	w.beatEvery.Store(int64(time.Second))
	cfg.Service.Handle("POST /cluster/dispatch", w.handleDispatch)
	return w, nil
}

// Handler serves the full worker surface: the local service API (so a
// worker is still a working single-node prover) plus /cluster/dispatch,
// which NewWorker mounted beside it.
func (w *Worker) Handler() http.Handler { return w.svc.Handler() }

// ID returns the coordinator-assigned worker ID ("" before the first
// join).
func (w *Worker) ID() string { return w.id.Load().(string) }

// AdvertiseURL returns the URL this worker advertises to the
// coordinator.
func (w *Worker) AdvertiseURL() string { return w.advertise.Load().(string) }

// SetAdvertiseURL sets this worker's base URL as the coordinator should
// dial it; call before Start, once the listener is bound and the dialable
// address is known.
func (w *Worker) SetAdvertiseURL(u string) { w.advertise.Store(u) }

// Start joins the coordinator (retrying under the configured policy) and
// launches the heartbeat loop. The worker's HTTP listener should already
// be serving Handler, since the join advertises it.
func (w *Worker) Start(ctx context.Context) error {
	if w.AdvertiseURL() == "" {
		return fmt.Errorf("cluster: AdvertiseURL must be set before Start")
	}
	if err := w.join(ctx); err != nil {
		return fmt.Errorf("cluster: join %s: %w", w.cfg.CoordinatorURL, err)
	}
	w.wg.Add(1)
	//zkvet:ignore norawgo heartbeat loop with a single owner; joined via wg.Wait in Close, exits on the closed channel
	go w.heartbeatLoop()
	return nil
}

// Close leaves the pool (best effort) and stops the loops. Idempotent.
// The local service is the caller's to drain and close.
func (w *Worker) Close() {
	w.closeOnce.Do(func() {
		close(w.closed)
		if id := w.ID(); id != "" {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			retry.PostJSON(ctx, nil, w.cfg.CoordinatorURL+"/cluster/leave",
				LeaveRequest{WorkerID: id, Addr: w.AdvertiseURL()}, nil, retry.Policy{MaxAttempts: 1})
			cancel()
		}
		w.wg.Wait()
	})
}

func (w *Worker) join(ctx context.Context) error {
	var resp JoinResponse
	err := retry.PostJSON(ctx, nil, w.cfg.CoordinatorURL+"/cluster/join", JoinRequest{
		Addr:  w.AdvertiseURL(),
		Slots: w.svc.Slots(),
	}, &resp, workerRetry)
	if err != nil {
		return err
	}
	w.id.Store(resp.WorkerID)
	if resp.HeartbeatMS > 0 {
		w.beatEvery.Store(int64(time.Duration(resp.HeartbeatMS) * time.Millisecond))
	}
	return nil
}

// heartbeatLoop beats until Close. A 404 means this worker was evicted
// (a partition outlived EvictAfter, say) or the coordinator restarted —
// the loop rejoins for a fresh identity, which heals the pool without
// restarting the process.
func (w *Worker) heartbeatLoop() {
	defer w.wg.Done()
	for {
		select {
		case <-w.closed:
			return
		case <-time.After(time.Duration(w.beatEvery.Load())):
		}
		if err := faultinject.Hit(PointHeartbeat); err != nil {
			// Injected partition: the beat is dropped on the floor, exactly
			// like a dead link. The process keeps running.
			continue
		}
		err := retry.PostJSON(context.Background(), nil, w.cfg.CoordinatorURL+"/cluster/heartbeat", HeartbeatRequest{
			WorkerID: w.ID(),
			Addr:     w.AdvertiseURL(),
		}, nil, retry.Policy{MaxAttempts: 1})
		var se *retry.StatusError
		if errors.As(err, &se) && se.StatusCode == http.StatusNotFound {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			w.join(ctx)
			cancel()
		}
		// Other errors: the coordinator is unreachable this beat; the next
		// tick retries. Missing enough beats gets us evicted, and the
		// rejoin above brings us back.
	}
}

// handleDispatch is one lease: it proves the job and answers with the
// proof. The request's context is the lease — the coordinator cancels it
// at the lease deadline, on eviction, or when a hedge wins elsewhere —
// and the prove stops with it. 429 and 503 send the job to another
// worker; any other error status fails it.
func (w *Worker) handleDispatch(rw http.ResponseWriter, r *http.Request) {
	if err := faultinject.Hit(PointDispatch); err != nil {
		// Injected partition: refuse the lease as a network failure would.
		service.Fail(rw, http.StatusServiceUnavailable, "dispatch: %v", err)
		return
	}
	var req DispatchRequest
	if !service.Decode(rw, r, &req) {
		return
	}
	if req.CircuitID == "" {
		service.Fail(rw, http.StatusBadRequest, "dispatch: circuit_id is required")
		return
	}
	if !w.svc.HasCircuit(req.CircuitID) {
		if err := w.fetchCircuit(r.Context(), req.CircuitID); err != nil {
			// Replication failures are always worth another worker.
			service.Fail(rw, http.StatusServiceUnavailable, "replicate circuit %s: %v", req.CircuitID, err)
			return
		}
	}
	proof, _, err := w.svc.ProveHex(r.Context(), req.CircuitID, time.Duration(req.TimeoutMS)*time.Millisecond)
	var se *service.Error
	switch {
	case err == nil:
		service.OK(rw, DispatchResponse{Proof: proof})
	case errors.Is(err, service.ErrQueueFull):
		service.Fail(rw, http.StatusTooManyRequests, "prove: %v", err)
	case retry.IsTransient(err), errors.Is(err, context.DeadlineExceeded):
		service.Fail(rw, http.StatusServiceUnavailable, "prove: %v", err)
	case errors.As(err, &se):
		service.Fail(rw, se.Status, "prove: %v", err)
	default:
		service.Fail(rw, http.StatusInternalServerError, "prove: %v", err)
	}
}

// fetchCircuit replicates a spec from the coordinator's content-hash
// store and registers it with the local service, verifying the hash
// round-trips — a coordinator bug or a corrupted body cannot install the
// wrong circuit under an ID.
func (w *Worker) fetchCircuit(ctx context.Context, circuitID string) error {
	if err := faultinject.Hit(PointFetch); err != nil {
		return err
	}
	var spec service.CircuitSpec
	if err := retry.GetJSON(ctx, nil, w.cfg.CoordinatorURL+"/cluster/circuits/"+circuitID, &spec, workerRetry); err != nil {
		return err
	}
	sess, _, err := w.svc.RegisterSpec(ctx, &spec)
	if err != nil {
		return err
	}
	if got := sess.Hash.String(); got != circuitID {
		return fmt.Errorf("replicated spec hashes to %s, want %s", got, circuitID)
	}
	return nil
}
