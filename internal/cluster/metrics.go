package cluster

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"zkphire/internal/service"
)

// Metrics holds the coordinator's cluster-level counters. Gauges
// (workers live, heartbeat ages) are derived from the member table at
// scrape time rather than stored.
type Metrics struct {
	WorkerJoinsTotal      atomic.Int64
	WorkerLeavesTotal     atomic.Int64
	WorkerEvictionsTotal  atomic.Int64
	JobsAcceptedTotal     atomic.Int64
	JobsDispatchedTotal   atomic.Int64 // every dispatch RPC issued
	JobsRedispatchedTotal atomic.Int64 // dispatches after a lost lease
	JobsHedgedTotal       atomic.Int64 // extra leases issued by hedging
	JobsCompletedTotal    atomic.Int64
	JobsFailedTotal       atomic.Int64
	LeasesRevokedTotal    atomic.Int64 // leases revoked before they answered
	ResultsDuplicateTotal atomic.Int64 // answers after another lease settled the job
	DispatchErrorsTotal   atomic.Int64 // transport errors and 429/503 refusals
	ReplaysTotal          atomic.Int64 // keyed retries served from journal
}

// Scrape implements service.Backend: the cluster's counter rows, the pool
// size, and the per-worker heartbeat-age gauge the runbook alerts on.
func (p *pool) Scrape() ([]service.Counter, []service.Series) {
	m := p.metrics
	members := p.members.snapshot()
	sort.Slice(members, func(i, k int) bool { return members[i].id < members[k].id })
	now := time.Now()
	ages := make([]service.Sample, len(members))
	for i, mb := range members {
		ages[i] = service.Sample{Suffix: fmt.Sprintf("{worker=%q}", mb.id), Value: mb.beatAge(now).Seconds()}
	}
	return []service.Counter{
			{Name: "zkphired_worker_joins_total", Help: "Workers that joined the pool.", V: &m.WorkerJoinsTotal},
			{Name: "zkphired_worker_leaves_total", Help: "Workers that left gracefully.", V: &m.WorkerLeavesTotal},
			{Name: "zkphired_worker_evictions_total", Help: "Workers evicted for missed heartbeats.", V: &m.WorkerEvictionsTotal},
			{Name: "zkphired_jobs_accepted_total", Help: "Prove jobs accepted by the coordinator.", V: &m.JobsAcceptedTotal},
			{Name: "zkphired_jobs_dispatched_total", Help: "Job leases dispatched to workers.", V: &m.JobsDispatchedTotal},
			{Name: "zkphired_jobs_redispatched_total", Help: "Re-dispatches after a lost lease (eviction, lease timeout, transient failure).", V: &m.JobsRedispatchedTotal},
			{Name: "zkphired_jobs_hedged_total", Help: "Hedge leases issued for slow jobs.", V: &m.JobsHedgedTotal},
			{Name: "zkphired_jobs_completed_total", Help: "Jobs settled with a proof.", V: &m.JobsCompletedTotal},
			{Name: "zkphired_jobs_failed_total", Help: "Jobs settled with a permanent error.", V: &m.JobsFailedTotal},
			{Name: "zkphired_results_fenced_total", Help: "Leases revoked by eviction or deadline before they answered.", V: &m.LeasesRevokedTotal},
			{Name: "zkphired_results_duplicate_total", Help: "Answers that arrived after another lease settled the job.", V: &m.ResultsDuplicateTotal},
			{Name: "zkphired_dispatch_errors_total", Help: "Dispatch RPCs that failed outright.", V: &m.DispatchErrorsTotal},
			{Name: "zkphired_job_replays_total", Help: "Keyed retries answered from the journal.", V: &m.ReplaysTotal},
		}, []service.Series{
			{Name: "zkphired_workers_live", Help: "Workers currently registered and un-evicted.", Type: "gauge",
				Samples: []service.Sample{{Value: float64(len(members))}}},
			{Name: "zkphired_worker_heartbeat_age_seconds", Help: "Seconds since each worker's last heartbeat.", Type: "gauge", Samples: ages},
		}
}
