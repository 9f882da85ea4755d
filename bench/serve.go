package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"zkphire"
	"zkphire/internal/cluster"
	"zkphire/internal/curve"
	"zkphire/internal/ff"
	"zkphire/internal/journal"
	"zkphire/internal/service"
)

// node is one prover worker: a single-node service behind a cluster agent.
type node struct {
	svc   *service.Server
	agent *cluster.Worker
	ts    *httptest.Server
}

// front is anything that serves the client API over HTTP: the cluster's
// coordinator, or one service.Server for the single-node comparison.
type front struct {
	url       string
	seed      int64
	srs       *zkphire.SRS
	vk        *zkphire.VerifyingKey
	circuitID string
	// registerS is how long POST /circuits took.
	registerS float64
	stop      []func()
}

// serveInstance is serve_cluster10 after set-up: coordinator, journal,
// nproc workers with the circuit cached on each.
type serveInstance struct {
	front
	nodes []node
}

// openJournal creates a fresh fsync'ing journal under the run's temporary
// directory.
func openJournal(e *env, name string) (*journal.Journal, func(), error) {
	dir, err := os.MkdirTemp(e.tmpDir, name+"-")
	if err != nil {
		return nil, nil, err
	}
	j, err := journal.Open(filepath.Join(dir, "jobs.journal"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return j, func() { j.Close(); os.RemoveAll(dir) }, nil
}

// setupServe is everything before the first job can be posted: SRS,
// journal, coordinator, worker start and join, POST /circuits, and one
// cached session per worker.
func setupServe(e *env) (instance, error) {
	s := &serveInstance{}
	s.seed = e.seed
	s.srs = zkphire.SetupDeterministic(serveSRSVars(e), subSeed(e.seed, streamSRS))
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	jnl, closeJnl, err := openJournal(e, "coordinator")
	if err != nil {
		return nil, err
	}
	s.stop = append(s.stop, closeJnl)
	coord, err := cluster.New(cluster.Config{SRS: s.srs, Journal: jnl, HeartbeatInterval: 200 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	cts := httptest.NewServer(coord.Handler())
	s.url = cts.URL
	s.stop = append(s.stop, func() { coord.Close(); cts.Close() })

	for i := 0; i < e.nproc; i++ {
		svc, err := service.New(service.Config{SRS: s.srs, Workers: 1, MaxInflight: 1, QueueDepth: 4 * e.nproc})
		if err != nil {
			return nil, err
		}
		agent, err := cluster.NewWorker(cluster.WorkerConfig{Service: svc, CoordinatorURL: cts.URL})
		if err != nil {
			svc.Close()
			return nil, err
		}
		ts := httptest.NewServer(agent.Handler())
		agent.SetAdvertiseURL(ts.URL)
		s.nodes = append(s.nodes, node{svc: svc, agent: agent, ts: ts})
		if err := agent.Start(context.Background()); err != nil {
			return nil, err
		}
	}
	spec := additiveChainSpec(e.chain, e.seed)
	if err := s.register(spec); err != nil {
		return nil, err
	}
	// Warm every worker's session cache so the clock sees steady-state
	// proving, not preprocessing. Jobs cannot be aimed at a worker through
	// the coordinator, so the circuit is pre-replicated the way an operator
	// would: POST /circuits on each worker's own API, all at once.
	errs := make([]error, len(s.nodes))
	var wg sync.WaitGroup
	for i, n := range s.nodes {
		wg.Add(1)
		//zkvet:ignore norawgo one HTTP registration per worker at set-up, bounded by the pool size and joined by wg.Wait
		go func(i int, url string) {
			defer wg.Done()
			errs[i] = (&front{url: url}).register(spec)
		}(i, n.ts.URL)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cache warm, worker %d: %w", i, err)
		}
	}
	ok = true
	return s, nil
}

func serveSRSVars(e *env) int {
	lg := 1
	for 1<<uint(lg) < e.chain+2 {
		lg++
	}
	return lg + 1
}

func (s *serveInstance) close() {
	for _, n := range s.nodes {
		n.agent.Close()
		n.ts.Close()
		n.svc.Close()
	}
	s.front.close()
}

func (f *front) close() {
	for i := len(f.stop) - 1; i >= 0; i-- {
		f.stop[i]()
	}
}

// register posts the circuit and keeps its ID and verifying key.
func (f *front) register(spec *service.CircuitSpec) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	t0 := time.Now()
	var reg service.RegisterResponse
	if err := postJSON(f.url+"/circuits", body, &reg); err != nil {
		return fmt.Errorf("register: %w", err)
	}
	f.registerS = time.Since(t0).Seconds()
	vkBytes, err := base64.StdEncoding.DecodeString(reg.VerifyingKey)
	if err != nil {
		return err
	}
	if f.vk, err = zkphire.UnmarshalVerifyingKey(vkBytes); err != nil {
		return err
	}
	f.circuitID = reg.CircuitID
	return nil
}

// postJSON posts body and decodes a 200 reply into out; any other status
// is an error — a refused request is a failed operation.
func postJSON(url string, body []byte, out any) error {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// prove posts one uniquely keyed job and returns the reply.
func (f *front) prove(key string) (*service.ProveResponse, error) {
	body, err := json.Marshal(service.ProveRequest{CircuitID: f.circuitID, IdempotencyKey: key})
	if err != nil {
		return nil, err
	}
	var resp service.ProveResponse
	if err := postJSON(f.url+"/prove", body, &resp); err != nil {
		return nil, err
	}
	if resp.Replayed {
		return nil, fmt.Errorf("job %s was answered from the journal, not proved", key)
	}
	return &resp, nil
}

func (f *front) op(_ context.Context, client, i int) ([]byte, error) {
	resp, err := f.prove(fmt.Sprintf("job-%d-%d-%d", f.seed, client, i))
	if err != nil {
		return nil, err
	}
	return base64.StdEncoding.DecodeString(resp.Proof)
}

// check verifies offline, against the verifying key POST /circuits returned.
func (f *front) check(out []byte) error {
	var proof zkphire.Proof
	if err := proof.UnmarshalBinary(out); err != nil {
		return err
	}
	return zkphire.Verify(f.srs, f.vk, &proof)
}

var serveCluster10 = &workload{
	name:    "serve_cluster10",
	clients: func(e *env) int { return e.nproc },
	setup:   setupServe,
	trace:   traceServe,
}

// scrape reads the counters and gauges of a /metrics page.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 2 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(fields[1], 64); err == nil {
			out[fields[0]] = v
		}
	}
	return out, sc.Err()
}

// tracedFront is a front whose every job is a span; it also keeps each
// job's client-side latency minus the proving time the server reported.
type tracedFront struct {
	*front
	tr           *tracer
	span, prefix string

	mu         sync.Mutex
	overheadMS []float64
}

func (t *tracedFront) op(_ context.Context, _, i int) ([]byte, error) {
	_, end := t.tr.begin(t.span, -1, i)
	t0 := time.Now()
	resp, err := t.prove(fmt.Sprintf("%s-%d-%d", t.prefix, t.seed, i))
	d := time.Since(t0)
	end()
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.overheadMS = append(t.overheadMS, d.Seconds()*1e3-resp.DurationMS)
	t.mu.Unlock()
	return base64.StdEncoding.DecodeString(resp.Proof)
}

// tracedLoop runs the closed loop against f and checks every proof.
func tracedLoop(e *env, f *front, tr *tracer, span, prefix string, minOps int, seconds float64) (t *tracedFront, lat []float64, wall float64, failed int, err error) {
	t = &tracedFront{front: f, tr: tr, span: span, prefix: prefix}
	ops, wall := closedLoop(t, e.nproc, 0, minOps, seconds)
	failed, _, err = checkOps(t, ops)
	return t, latencies(ops), wall, failed, err
}

// traceServe is serve_cluster10's traced run: two thirds of the time (and
// enough jobs for a p90) through the cluster, one third through one
// journaled service.Server with the same budget, then the journal and the
// 2^10 MSM on their own.
func traceServe(e *env, inst instance, tr *tracer, m values) (int, int, error) {
	s := inst.(*serveInstance)
	_, clLat, _, clFailed, err := tracedLoop(e, &s.front, tr, "cluster.prove", "traced", e.tailOps, e.seconds*2/3)
	if err != nil {
		return len(clLat) + clFailed, clFailed, err
	}

	// One node, same circuit, same total worker budget, same clients.
	jnl, closeJnl, err := openJournal(e, "single")
	if err != nil {
		return 0, 0, err
	}
	single := &front{seed: e.seed, srs: s.srs, stop: []func(){closeJnl}}
	defer single.close()
	svc, err := service.New(service.Config{SRS: s.srs, Workers: e.nproc, MaxInflight: e.nproc, QueueDepth: 4 * e.nproc, Journal: jnl})
	if err != nil {
		return 0, 0, err
	}
	ts := httptest.NewServer(svc.Handler())
	single.url = ts.URL
	single.stop = append(single.stop, func() { ts.Close(); svc.Close() })
	if err := single.register(additiveChainSpec(e.chain, e.seed)); err != nil {
		return 0, 0, err
	}
	if _, err := single.prove("warm"); err != nil {
		return 0, 0, err
	}
	sn, snLat, snWall, snFailed, err := tracedLoop(e, single, tr, "service.prove", "single", e.minOps, e.seconds/3)
	attempted, failed := len(clLat)+clFailed+len(snLat)+snFailed, clFailed+snFailed
	if err != nil {
		return attempted, failed, err
	}

	m["service.single_node_latency_s_p50"] = median(snLat)
	m["service.single_node_proofs_per_s"] = float64(len(snLat)) / snWall
	m["service.overhead_ms_p50"] = median(sn.overheadMS)
	m["service.register_s"] = single.registerS
	sm, err := scrape(single.url)
	if err != nil {
		return attempted, failed, err
	}
	m["service.cache_hits"] = sm["zkphired_cache_hits_total"]
	m["service.preprocess_total"] = sm["zkphired_preprocess_total"]
	m["service.proof_retries"] = sm["zkphired_proof_retries_total"]
	m["service.rejected"] = sm["zkphired_proofs_rejected_total"]

	// The tail is reported only with ten samples beyond it (0 otherwise,
	// which only -smoke's two jobs come to).
	m["cluster.latency_s_p90"] = 0
	if tailAllowed(len(clLat), 0.9) {
		m["cluster.latency_s_p90"] = percentile(clLat, 0.9)
	}
	m["cluster.overhead_ms_p50"] = (median(clLat) - median(snLat)) * 1e3
	cm, err := scrape(s.url)
	if err != nil {
		return attempted, failed, err
	}
	m["cluster.jobs_dispatched"] = cm["zkphired_jobs_dispatched_total"]
	m["cluster.jobs_redispatched"] = cm["zkphired_jobs_redispatched_total"]
	m["cluster.dispatch_errors"] = cm["zkphired_dispatch_errors_total"]
	m["cluster.results_fenced"] = cm["zkphired_results_fenced_total"]
	m["cluster.dispatch_ratio"] = cm["zkphired_jobs_completed_total"] / cm["zkphired_jobs_dispatched_total"]
	lo, hi := 0.0, 0.0
	for i, n := range s.nodes {
		wm, err := scrape(n.ts.URL)
		if err != nil {
			return attempted, failed, err
		}
		jobs := wm["zkphired_proofs_total"]
		if i == 0 || jobs < lo {
			lo = jobs
		}
		hi = max(hi, jobs)
	}
	m["cluster.worker_imbalance"] = hi / max(lo, 1)

	// One Accept+Complete pair with fsync and a proof-sized payload.
	probe, closeProbe, err := openJournal(e, "probe")
	if err != nil {
		return attempted, failed, err
	}
	defer closeProbe()
	spec, err := json.Marshal(additiveChainSpec(e.chain, e.seed))
	if err != nil {
		return attempted, failed, err
	}
	if err := probe.RecordCircuit(s.circuitID, spec); err != nil {
		return attempted, failed, err
	}
	payload := make([]byte, 1)
	if resp, err := s.prove("payload"); err == nil {
		payload = make([]byte, resp.ProofBytes)
	}
	fi, err := os.Stat(probe.Path())
	if err != nil {
		return attempted, failed, err
	}
	before := fi.Size()
	const pairs = 50
	for i := 0; i < pairs; i++ {
		key := fmt.Sprintf("probe-%d", i)
		tr.time("journal.accept_complete", -1, i, func() {
			if err = probe.Accept(key, s.circuitID, 0); err == nil {
				err = probe.Complete(key, payload)
			}
		})
		if err != nil {
			return attempted, failed, err
		}
	}
	if fi, err = os.Stat(probe.Path()); err != nil {
		return attempted, failed, err
	}
	m["journal.accept_complete_ms_p50"] = tr.med("journal.accept_complete") * 1e3
	m["journal.bytes_per_job"] = float64(fi.Size()-before) / pairs

	// The MSM size each of these narrow proofs runs, alone on one worker.
	rng := ff.NewRand(subSeed(e.seed, streamTables))
	level := s.srs.Levels[s.srs.MaxVars-1]
	scalars := rng.Elements(len(level))
	for i := 0; i < 20; i++ {
		tr.time("curve.msm10_w1_s", -1, i, func() { curve.MSMWorkers(level, scalars, 1) })
	}
	m["curve.msm10_w1_s"] = tr.med("curve.msm10_w1_s")
	return attempted, failed, nil
}
