package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// member is one registered worker, as the coordinator sees it.
type member struct {
	id    string
	seq   uint64 // the number in id: join order, the placement tie-break
	addr  string
	slots int

	// lastBeat is the wall time of the last heartbeat, unix nanos.
	lastBeat atomic.Int64
	// load counts this coordinator's outstanding dispatches to the
	// worker, reserved slots included: pick raises it, release lowers it.
	load atomic.Int64
	// ctx ends when the member is evicted or leaves, and with it every
	// lease on the worker (context.AfterFunc in pool.dispatch).
	ctx    context.Context
	cancel context.CancelFunc
}

func (m *member) beat(now time.Time) { m.lastBeat.Store(now.UnixNano()) }

// capacity is how many leases the worker can run without queueing: its
// advertised slot count (minimum 1). Placement never exceeds it, so
// a slow pool backs jobs up on the coordinator — where waiting is free
// and consumes no dispatch attempts — instead of overflowing worker
// queues into transient failures.
func (m *member) capacity() int64 {
	if m.slots < 1 {
		return 1
	}
	return int64(m.slots)
}

// release gives back one slot taken by pick, once per dispatch attempt,
// when its request returns. Floored at zero, so a stray second release
// cannot over-admit the worker past its capacity.
func (m *member) release() {
	for {
		cur := m.load.Load()
		if cur <= 0 || m.load.CompareAndSwap(cur, cur-1) {
			return
		}
	}
}

func (m *member) beatAge(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, m.lastBeat.Load()))
}

// memberTable is the coordinator's worker registry. IDs are handed out
// by the coordinator (w1, w2, ...) so a rejoining worker is a new
// member — the evicted incarnation never comes back, its leases stay
// revoked. The numbering restarts with each coordinator process, so a
// member is named by its ID and the address it joined from together.
type memberTable struct {
	mu      sync.Mutex
	members map[string]*member
	seq     uint64
}

func newMemberTable() *memberTable {
	return &memberTable{members: make(map[string]*member)}
}

func (t *memberTable) join(addr string, slots int, now time.Time) *member {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	m := &member{id: fmt.Sprintf("w%d", t.seq), seq: t.seq, addr: addr, slots: slots}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	m.beat(now)
	t.members[m.id] = m
	return m
}

// get returns the member that id names, if it joined from addr; an ID
// that another address holds is as unknown as one never handed out.
func (t *memberTable) get(id, addr string) (*member, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.members[id]
	return m, ok && m.addr == addr
}

// heartbeat refreshes a member's liveness; false means the member is
// unknown (evicted, never joined, or its ID now held by another address)
// and the worker must rejoin.
func (t *memberTable) heartbeat(id, addr string, now time.Time) bool {
	m, ok := t.get(id, addr)
	if ok {
		m.beat(now)
	}
	return ok
}

// remove drops a member on a graceful leave and revokes its leases; the
// returned member is nil when it was already gone.
func (t *memberTable) remove(id, addr string) *member {
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.members[id]
	if !ok || m.addr != addr {
		return nil
	}
	delete(t.members, id)
	m.cancel()
	return m
}

// snapshot returns the current members (live by definition — stale ones
// are physically removed by evictStale).
func (t *memberTable) snapshot() []*member {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*member, 0, len(t.members))
	for _, m := range t.members {
		out = append(out, m)
	}
	return out
}

func (t *memberTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.members)
}

// pick returns the least-loaded member with spare capacity — the earliest
// joined among equals — skipping IDs in exclude; nil when none qualify
// (empty, all excluded, or all saturated — the caller waits in every
// case). Exclusion is how re-dispatch avoids handing a job straight back
// to the worker whose lease just expired, and how hedging picks a
// different worker than the primary.
//
// The slot is reserved here, under the table lock, not after the dispatch
// RPC returns: jobs accepted together would otherwise all read the same
// idle member as least loaded and pile onto it while the rest of the pool
// idles. The dispatch attempt that takes the slot releases it when its
// request returns.
func (t *memberTable) pick(exclude map[string]bool) *member {
	t.mu.Lock()
	defer t.mu.Unlock()
	var best *member
	var bestLoad int64
	for _, m := range t.members {
		load := m.load.Load()
		if exclude[m.id] || load >= m.capacity() {
			continue
		}
		if best == nil || load < bestLoad || (load == bestLoad && m.seq < best.seq) {
			best, bestLoad = m, load
		}
	}
	if best != nil {
		best.load.Add(1)
	}
	return best
}

// evictStale removes every member whose last beat is older than
// evictAfter, revokes their leases, and returns them so the caller can
// count evictions.
func (t *memberTable) evictStale(now time.Time, evictAfter time.Duration) []*member {
	t.mu.Lock()
	defer t.mu.Unlock()
	var evicted []*member
	for id, m := range t.members {
		if m.beatAge(now) > evictAfter {
			delete(t.members, id)
			m.cancel()
			evicted = append(evicted, m)
		}
	}
	return evicted
}
