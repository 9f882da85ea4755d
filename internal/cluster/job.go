package cluster

import (
	"sync"
	"time"
)

// job is one proof the pool is running for the front-end. Its lease-epoch
// pair is the whole fencing mechanism:
//
//   - next is the next epoch a dispatch will run under; every dispatch
//     (initial, re-dispatch, hedge) takes the current value and
//     increments it, so epochs are unique per job and ordered.
//   - fence is the lowest epoch a completion may carry and still be
//     accepted. Declaring a lease lost raises fence past that lease's
//     epoch; hedged dispatch deliberately does NOT raise it, which is
//     what keeps both racing leases valid.
//
// A completion settles the job iff epoch >= fence and nothing settled it
// first. Settling only hands the proof to the front-end, which journals
// it before any client sees it (DESIGN.md §10).
type job struct {
	id        string // idempotency key for keyed jobs, synthetic otherwise
	circuitID string
	timeoutMS int

	mu         sync.Mutex
	fence      uint64
	next       uint64
	attempts   int       // dispatches issued (hedges included)
	leaseUntil time.Time // latest deadline of any lease issued
	settled    bool
	proof      []byte
	errMsg     string
	done       chan struct{} // closed exactly once, on settle
}

func newJob(id, circuitID string, timeoutMS int) *job {
	return &job{id: id, circuitID: circuitID, timeoutMS: timeoutMS, done: make(chan struct{})}
}

// lease hands out the next epoch for a dispatch attempt that may run for
// d, and that attempt's deadline.
func (j *job) lease(d time.Duration) (epoch uint64, deadline time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	epoch = j.next
	j.next++
	j.attempts++
	deadline = time.Now().Add(d)
	if deadline.After(j.leaseUntil) {
		j.leaseUntil = deadline
	}
	return epoch, deadline
}

// loseLease declares the lease at epoch dead: completions at or below it
// are fenced from now on. Later epochs (a concurrent hedge) stay valid.
// Reports whether the fence actually moved — false means a later event
// already fenced past this epoch.
func (j *job) loseLease(epoch uint64) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.fence > epoch {
		return false
	}
	j.fence = epoch + 1
	return true
}

// leaseLost reports whether the lease at epoch has been fenced off.
func (j *job) leaseLost(epoch uint64) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fence > epoch
}

func (j *job) isSettled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.settled
}

func (j *job) dispatches() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// take moves the settled outcome out of the job (valid only after done is
// closed): what stays behind for late completions is the epoch/fence
// state, not the proof bytes. linger is how long until the last lease
// issued has expired and nothing can complete the job any more.
func (j *job) take() (proof []byte, errMsg string, linger time.Duration) {
	j.mu.Lock()
	defer j.mu.Unlock()
	proof, j.proof = j.proof, nil
	return proof, j.errMsg, time.Until(j.leaseUntil)
}

// outcome classifies a completion attempt.
type outcome int

const (
	outcomeSettled   outcome = iota // this completion won the job
	outcomeDuplicate                // job already settled
	outcomeFenced                   // lease epoch below the fence
)

// noFence is the epoch the pool itself settles under when a job runs out
// of attempts: no lease may ever complete it, so the fence does not apply.
const noFence = ^uint64(0)

// settle applies a completion under the fencing rules.
func (j *job) settle(epoch uint64, proof []byte, errMsg string) outcome {
	j.mu.Lock()
	defer j.mu.Unlock()
	// Fence before duplicate: a below-fence completion is rejected as
	// fenced whether or not the job has settled, so tests and operators
	// can see late results from presumed-dead workers as fencing events.
	if epoch < j.fence {
		return outcomeFenced
	}
	if j.settled {
		return outcomeDuplicate
	}
	j.settled = true
	j.proof = proof
	j.errMsg = errMsg
	close(j.done)
	return outcomeSettled
}

// jobTable indexes jobs by ID so completions find theirs in O(1). A
// settled job stays until its last lease deadline has passed — a late
// completion inside that window is still classified (fenced, duplicate)
// against its epochs — and is then removed; anything later takes the
// unknown-job path.
type jobTable struct {
	mu   sync.Mutex
	jobs map[string]*job
}

// put indexes j, replacing a settled job still lingering under the same
// ID (a failed key the front-end re-opened).
func (t *jobTable) put(j *job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs[j.id] = j
}

func (t *jobTable) get(id string) (*job, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j, ok := t.jobs[id]
	return j, ok
}

// remove drops j (and only j).
func (t *jobTable) remove(j *job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.jobs[j.id] == j {
		delete(t.jobs, j.id)
	}
}
