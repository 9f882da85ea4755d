package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"

	"zkphire/internal/membench"
)

// env is what one run of one workload sees.
type env struct {
	seed    int64
	seconds float64
	// lg is the circuit and table size of the library and sweep workloads
	// (16; 8 under -smoke), chain the serving circuit's gate count (1000;
	// 100 under -smoke).
	lg, chain int
	// minOps is the fewest timed operations a run accepts, whatever
	// -seconds says.
	minOps int
	// traceRounds is the fewest rounds of probes and traced operations a
	// traced run makes.
	traceRounds int
	// tailOps is how many cluster jobs the traced serving run needs before
	// it may report a p90: ten beyond it.
	tailOps int
	// setups is the fewest times the untraced run sets up; setup_s is the
	// median.
	setups int
	// nproc sizes everything parallel: prover workers, serving workers,
	// HTTP clients.
	nproc int
	// outDir is bench/out; tmpDir, under it, is also the process's TMPDIR.
	outDir, tmpDir string
}

// instance is a workload after set-up: ready for its first operation.
type instance interface {
	// op performs one operation for one closed-loop client and returns the
	// bytes a user would hold afterwards.
	op(ctx context.Context, client, i int) ([]byte, error)
	// check verifies one operation's bytes.
	check(out []byte) error
	close()
}

// workload is one named entry of BENCHMARK.json.
type workload struct {
	name string
	// clients is the closed loop's width.
	clients func(e *env) int
	setup   func(e *env) (instance, error)
	// trace fills the per-layer metrics this workload is the home of; it
	// returns the operations it attempted and how many failed.
	trace func(e *env, inst instance, tr *tracer, m values) (attempted, failed int, err error)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

// values are measured numbers by metric name; their units are the tables'
// (layers.go).
type values map[string]float64

// result is the last line of standard output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// setupSeconds is how long set-up is repeated for when e.setups repeats take
// less: a 0.1 s set-up is over within a handful of speed samples, so its
// median is taken over more repeats.
const setupSeconds = 1.5

// setUp runs the workload's set-up e.setups times or more, keeping the last
// instance, and returns the durations at the reference speed and raw.
func setUp(w *workload, e *env) (inst instance, took, raw []float64, err error) {
	m := startMeter()
	defer m.stop()
	start := time.Now()
	for i := 0; i < e.setups || time.Since(start).Seconds() < min(setupSeconds, e.seconds); i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		m.lap()
		t0 := time.Now()
		if inst, err = w.setup(e); err != nil {
			return nil, nil, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		d := time.Since(t0).Seconds()
		raw = append(raw, d)
		took = append(took, d*speedFactor(m.lap()))
	}
	return inst, took, raw, nil
}

// opRecord is one timed operation; seconds is its latency at the
// reference speed once its segment has been scaled, raw as measured.
type opRecord struct {
	seconds, raw float64
	out          []byte
	err          error
}

// closedLoop runs clients concurrent callers, each issuing its next
// operation only when the previous one returned, until seconds have passed
// and at least minOps operations are done. Operations in flight at the
// deadline finish and count. Operations are numbered from first.
func closedLoop(inst instance, clients, first, minOps int, seconds float64) (ops []opRecord, wall float64) {
	var (
		mu    sync.Mutex
		wg    sync.WaitGroup
		begun int
	)
	start := time.Now()
	next := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if time.Since(start).Seconds() >= seconds && begun >= minOps {
			return 0, false
		}
		begun++
		return first + begun - 1, true
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		//zkvet:ignore norawgo load-generator clients are callers of the system under test, not prover concurrency; bounded by the client count and joined by wg.Wait
		go func(c int) {
			defer wg.Done()
			for {
				i, ok := next()
				if !ok {
					return
				}
				t0 := time.Now()
				out, err := inst.op(context.Background(), c, i)
				d := time.Since(t0).Seconds()
				rec := opRecord{seconds: d, raw: d, out: out, err: err}
				mu.Lock()
				ops = append(ops, rec)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return ops, time.Since(start).Seconds()
}

// latencies lists the durations of the operations that returned bytes.
func latencies(ops []opRecord) []float64 {
	var lat []float64
	for _, op := range ops {
		if op.err == nil {
			lat = append(lat, op.seconds)
		}
	}
	return lat
}

// checkOps verifies every operation's bytes and that all of them share one
// sha256 (the provers are deterministic and a run proves one statement). It
// returns the number of failed operations and the shared digest.
func checkOps(inst instance, ops []opRecord) (failed int, digest string, err error) {
	verified := map[[32]byte]error{}
	var first [32]byte
	for i, op := range ops {
		if op.err != nil {
			failed++
			err = fmt.Errorf("op %d: %w", i, op.err)
			continue
		}
		sum := sha256.Sum256(op.out)
		verr, seen := verified[sum]
		if !seen {
			verr = inst.check(op.out)
			verified[sum] = verr
		}
		if verr != nil {
			failed++
			err = fmt.Errorf("op %d does not verify: %w", i, verr)
			continue
		}
		if len(verified) == 1 {
			first = sum
		}
	}
	if len(verified) > 1 {
		return failed, "", fmt.Errorf("%d distinct outputs in one run, want one sha256", len(verified))
	}
	return failed, hex.EncodeToString(first[:]), err
}

// segmentSeconds is how long the closed loop runs under one speed reading.
const segmentSeconds = 1.5

// runEndToEnd is the untraced run: set-up (repeated), one warm-up operation
// outside the clock, the timed closed loop under the RSS sampler, and the
// correctness checks. Timings are at the reference speed (calibrate.go).
func runEndToEnd(w *workload, e *env) (*result, *runInfo, error) {
	inst, setups, rawSetups, err := setUp(w, e)
	if err != nil {
		return nil, nil, err
	}
	defer inst.close()

	warm, err := inst.op(context.Background(), 0, -1)
	if err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	if err := inst.check(warm); err != nil {
		return nil, nil, fmt.Errorf("warm-up does not verify: %w", err)
	}

	// The timed phase is cut into segments of segmentSeconds (one operation,
	// where operations are longer), each scaled by the speedometer's reading
	// over that segment. Garbage is collected between segments, so that the
	// peak resident set is what one segment needs on top of the session.
	var (
		ops                        []opRecord
		wall, cpu, rawWall, rawCPU float64
		kernel                     []float64
	)
	rss := membench.Sample(func() {
		m := startMeter()
		defer m.stop()
		for rawWall < e.seconds || len(ops) < e.minOps {
			runtime.GC()
			m.lap()
			cpu0 := cpuSeconds()
			seg, segWall := closedLoop(inst, w.clients(e), len(ops), 1, min(segmentSeconds, e.seconds))
			segCPU := cpuSeconds() - cpu0
			k := m.lap()
			kernel = append(kernel, k)
			f := speedFactor(k)
			for i := range seg {
				seg[i].seconds *= f
			}
			ops = append(ops, seg...)
			rawWall += segWall
			rawCPU += segCPU
			wall += segWall * f
			cpu += segCPU * f
		}
	})

	failed, digest, checkErr := checkOps(inst, ops)
	good := len(ops) - failed
	info := &runInfo{Setups: setups, RawSetups: rawSetups, WallSeconds: wall, CPUSeconds: cpu, RawWallSeconds: rawWall, RawCPUSeconds: rawCPU, Kernel: kernel, SHA256: digest}
	var size int
	for _, op := range ops {
		if op.err == nil {
			info.Latencies = append(info.Latencies, op.seconds)
			info.RawLatencies = append(info.RawLatencies, op.raw)
			size = len(op.out)
		}
	}
	lat := info.Latencies
	res := &result{Correct: checkErr == nil && failed == 0 && good > 0, Attempted: len(ops), Failed: failed, Metrics: metrics{}}
	if good > 0 {
		got := values{
			"proof_latency_s_p50": median(lat),
			"proofs_per_s":        float64(good) / wall,
			"cpu_s_per_proof":     cpu / float64(good),
			"peak_rss_mib":        float64(rss.PeakBytes) / (1 << 20),
			"setup_s":             median(setups),
			"proof_bytes":         float64(size),
		}
		for _, em := range endToEnd {
			v, ok := got[em.name]
			if !ok {
				return nil, nil, fmt.Errorf("end-to-end metric %s is declared but not measured", em.name)
			}
			res.Metrics[em.name] = metric{v, em.unit}
		}
	}
	if q, ok := highestTail(len(lat)); ok {
		info.TailQuantile, info.TailSeconds = q, percentile(lat, q)
	}
	return res, info, checkErr
}

// runTraced is the -trace run: one set-up, then the workload's probes and
// traced operations, every span kept in tr.
func runTraced(w *workload, e *env, tr *tracer) (*result, error) {
	_, end := tr.begin("setup", -1, -1)
	inst, err := w.setup(e)
	end()
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	m := values{}
	attempted, failed, err := w.trace(e, inst, tr, m)
	res := &result{Correct: err == nil && failed == 0 && attempted > 0, Attempted: attempted, Failed: failed}
	if err == nil {
		res.Metrics, err = perLayerMetrics(w.name, m)
	}
	return res, err
}
