// Package cluster is zkphired's distributed control plane: a coordinator
// — the service package's client front-end (routes, idempotency keys,
// journal, drain, recovery: one implementation for every topology) over a
// remote backend, the worker pool — and prover workers that each wrap a
// full single-node service. This package decides which worker runs a job;
// how a key is made exactly-once is the front-end's business. Robustness
// — surviving worker loss without losing or double-counting jobs — is the
// design center, not sharding:
//
//   - Membership. Workers join the coordinator and heartbeat on a fixed
//     interval; a worker that misses heartbeats for EvictAfter is evicted
//     and every job leased to it is re-dispatched to a healthy peer. A
//     beat counts only for the member that joined from its address, so an
//     ID a restarted coordinator hands out again cannot be kept alive by
//     the worker that held it before.
//   - A lease is one request. The coordinator leases a job by one POST
//     /cluster/dispatch, which the worker answers with the proof. The
//     request runs under a context that the lease deadline ends and that
//     the worker's eviction or leave cancels, so a lease the coordinator
//     has given up on cannot answer: its request is gone, and the worker's
//     prove stops with it. The first successful answer settles the job;
//     the front-end's journaled idempotency keys make the client-visible
//     proof at-most-one even when several leases race. DESIGN.md §10 has
//     the full argument.
//   - Replication. Circuits travel by content hash: a worker missing a
//     dispatched circuit fetches the spec from the coordinator
//     (GET /cluster/circuits/{id}) with internal/retry backoff and
//     registers it locally — the hash makes the fetch idempotent.
//   - Recovery. The front-end journals every keyed job before it reaches
//     Prove, so a coordinator restart re-runs pending jobs from the
//     journal exactly like the single-node daemon (service.StartRecovery)
//     — the workers just happen to be remote, and the jobs wait for them
//     to rejoin.
//   - Hedging. Optionally, a job still unfinished after HedgeDelay is
//     dispatched a second time to a different worker: the first answer
//     wins and the loser's request is cancelled.
//
// The wire protocol is the service's existing HTTP JSON style: internal
// routes under /cluster/* on both roles, client routes unchanged. The
// chaos points PointHeartbeat, PointDispatch, and PointFetch let
// internal/faultinject partition a worker — its cluster RPCs fail while
// the process lives — which is a different failure than the crash modes
// and is tested separately.
package cluster

// Fault-injection point names for the network-shaped failures the chaos
// harness arms (internal/faultinject). All three sit on the worker side
// of an RPC, so arming them in a worker process simulates a partition of
// that worker: its heartbeats stop, dispatches to it fail, its circuit
// fetches fail — but it keeps running, which is exactly the
// presumed-dead-but-alive scenario lease revocation exists for.
const (
	PointHeartbeat = "cluster.heartbeat"
	PointDispatch  = "cluster.dispatch"
	PointFetch     = "cluster.fetch"
)

// JoinRequest registers a worker with the coordinator. Rejoining after a
// partition heals is the same call: the coordinator hands out a fresh
// worker ID and the old one stays evicted.
type JoinRequest struct {
	// Addr is the worker's advertised base URL ("http://host:port") the
	// coordinator dispatches to.
	Addr string `json:"addr"`
	// Slots is how many proofs the worker runs at once: placement never
	// has more of its leases outstanding.
	Slots int `json:"slots"`
}

// JoinResponse tells the worker its identity and cadence.
type JoinResponse struct {
	WorkerID string `json:"worker_id"`
	// HeartbeatMS is the interval the coordinator expects beats on.
	HeartbeatMS int `json:"heartbeat_ms"`
}

// HeartbeatRequest is the worker's liveness beat. Placement counts each
// worker's outstanding dispatches itself, so the beat carries no load.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	// Addr is the URL the worker joined with. A beat for an ID that some
	// other address holds is refused like an unknown ID, which makes the
	// sender rejoin: worker IDs restart at w1 with every coordinator
	// process.
	Addr string `json:"addr"`
}

// LeaveRequest is a graceful goodbye: the worker is removed without
// counting as an eviction. Like a heartbeat, it names the member by ID
// and join address.
type LeaveRequest struct {
	WorkerID string `json:"worker_id"`
	Addr     string `json:"addr"`
}

// DispatchRequest leases one proof job to a worker. The worker answers
// with a DispatchResponse once the proof is made, or with an error
// status: 429 or 503 sends the job to another worker, any other status
// fails it.
type DispatchRequest struct {
	CircuitID string `json:"circuit_id"`
	// TimeoutMS bounds the worker-side prove (already clamped by the
	// coordinator).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// DispatchResponse carries the proof bytes (base64 in JSON).
type DispatchResponse struct {
	Proof []byte `json:"proof"`
}
