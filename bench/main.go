// Command bench is the repository's one benchmark: it runs one named
// workload of BENCHMARK.json in a fresh process and prints every metric by
// name with its unit.
//
//	go run ./bench --workload vanilla16 --seed 42 --seconds 12 --trace 0
//	go run ./bench --workload vanilla16 --trace 1     # per-layer numbers
//	go run ./bench -smoke                             # every workload, small
//	go run ./bench -compare a.jsonl b.jsonl           # two sets of runs
//
// An untraced run reports the end-to-end metrics; a traced run of the same
// workload reports the per-layer metrics from spans the benchmark records
// around calls into each layer's public functions. The last line of
// standard output is the run's result as one JSON object; the same record,
// with the runner's description, is appended to bench/out/runs.jsonl. See
// README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"zkphire"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 12

// runInfo is what an untraced run knows beyond its metrics.
// Seconds are at the reference speed unless the field says raw.
type runInfo struct {
	Setups         []float64 `json:"setup_seconds"`
	RawSetups      []float64 `json:"raw_setup_seconds"`
	Latencies      []float64 `json:"latency_seconds"`
	RawLatencies   []float64 `json:"raw_latency_seconds"`
	WallSeconds    float64   `json:"wall_seconds"`
	CPUSeconds     float64   `json:"cpu_seconds"`
	RawWallSeconds float64   `json:"raw_wall_seconds"`
	RawCPUSeconds  float64   `json:"raw_cpu_seconds"`
	// Kernel holds the speedometer's reading for each segment of the timed
	// phase, in order.
	Kernel       []float64 `json:"kernel_seconds"`
	SHA256       string    `json:"sha256"`
	TailQuantile float64   `json:"tail_quantile,omitempty"`
	TailSeconds  float64   `json:"tail_seconds,omitempty"`
}

// record is one line of runs.jsonl: the result plus everything a later
// baseline needs to refuse a row from a different runner.
type record struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Trace      bool     `json:"trace"`
	Smoke      bool     `json:"smoke"`
	Generated  string   `json:"generated"`
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go_version"`
	Result     *result  `json:"result"`
	Info       *runInfo `json:"info,omitempty"`
	Spans      string   `json:"spans,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 42, "seeds the SRS, the witness and gate mix, the table RNG and the idempotency keys")
	seconds := flag.Float64("seconds", defaultSeconds, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = record spans and report the per-layer metrics instead of the end-to-end ones")
	smoke := flag.Bool("smoke", false, "run every workload and its traced pass at logGates 8")
	compare := flag.Bool("compare", false, "compare two run sets against BENCHMARK.json's bounds: bench -compare a.jsonl b.jsonl")
	out := flag.String("o", "", "append the run's record to this file (default bench/out/runs.jsonl)")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files"))
		}
		ok, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *smoke:
		if err := runSmoke(*seed); err != nil {
			fatal(err)
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		e, err := newEnv(*seed, *seconds, false)
		if err != nil {
			fatal(err)
		}
		rec, err := runOne(w, e, *trace != 0, false)
		if rec != nil {
			if werr := appendRecord(e, *out, rec); werr != nil && err == nil {
				err = werr
			}
			printResult(rec)
		}
		if err != nil {
			fatal(err)
		}
		if !rec.Result.Correct {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// newEnv sizes a run. Everything the run writes — result files, spans, the
// journal, the spill store and the offloaded SRS — goes under bench/out in
// the working directory, so TMPDIR is pointed there too.
func newEnv(seed int64, seconds float64, smoke bool) (*env, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(wd, "bench", "main.go")); err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	outDir := filepath.Join(wd, "bench", "out")
	tmp := filepath.Join(outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	if err := os.Setenv("TMPDIR", tmp); err != nil {
		return nil, err
	}
	e := &env{seed: seed, seconds: seconds, lg: 16, chain: 1000, minOps: 3, traceRounds: 1, tailOps: 10 * tailBeyond, setups: 3, nproc: runtime.GOMAXPROCS(0), outDir: outDir, tmpDir: tmp}
	if smoke {
		e.lg, e.chain, e.minOps, e.traceRounds, e.tailOps, e.setups, e.seconds = 8, 100, 2, 2, 2, 1, 0
	}
	return e, nil
}

// runOne runs one workload once, traced or not.
func runOne(w *workload, e *env, traced, smoke bool) (*record, error) {
	rec := &record{
		Workload: w.name, Seed: e.seed, Seconds: e.seconds, Trace: traced, Smoke: smoke,
		Generated: time.Now().UTC().Format(time.RFC3339),
		NumCPU:    runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	var err error
	if traced {
		tr := newTracer()
		rec.Result, err = runTraced(w, e, tr)
		rec.Spans = filepath.Join(e.outDir, fmt.Sprintf("%s-seed%d.spans.json", w.name, e.seed))
		if werr := tr.write(rec.Spans); werr != nil && err == nil {
			err = werr
		}
	} else {
		rec.Result, rec.Info, err = runEndToEnd(w, e)
	}
	if rec.Result == nil {
		return nil, err
	}
	return rec, err
}

// perLayerMetrics completes a traced run's measurements to the full
// per-layer list, with the tables' units: the modelled hw.* values, which are
// the same on every runner, and 0 for every metric whose home is another
// workload. It is an error for the run to have skipped a metric it is the
// home of, or measured one it is not.
func perLayerMetrics(workload string, got values) (metrics, error) {
	hw := hwMetrics()
	m := metrics{}
	declared := 0
	for _, lm := range perLayer {
		v, measured := got[lm.name]
		if measured {
			declared++
		}
		if measured != (lm.home == workload) {
			return nil, fmt.Errorf("per-layer metric %s: home is %s, measured by %s: %v", lm.name, lm.home, workload, measured)
		}
		if lm.home == "all" {
			v = hw[lm.name]
		}
		m[lm.name] = metric{v, lm.unit}
	}
	if declared != len(got) {
		return nil, fmt.Errorf("%s measured a per-layer metric that is not declared", workload)
	}
	return m, nil
}

// hwMetrics evaluates the paper's analytic models through the public
// Estimators. They depend on nothing measured and must stay bit-identical
// unless a change says it changes a model.
func hwMetrics() map[string]float64 {
	out := map[string]float64{}
	cpu := zkphire.NewCPUEstimator(32)
	acc := zkphire.DefaultAccelerator()
	if est, err := cpu.EstimateProtocol(zkphire.Vanilla, 16); err == nil {
		out["hw.cpumodel_vanilla16_s"] = est.Seconds
	}
	accJF, err1 := acc.EstimateProtocol(zkphire.Jellyfish, 24)
	cpuJF, err2 := cpu.EstimateProtocol(zkphire.Jellyfish, 24)
	if err1 == nil && err2 == nil {
		out["hw.zkphire_jellyfish24_ms"] = accJF.Seconds * 1e3
		out["hw.zkphire_speedup_vs_cpumodel_jf24"] = cpuJF.Seconds / accJF.Seconds
	}
	return out
}

// printResult prints every metric by name with its unit, the operation
// count the medians are over, and the highest latency percentile that has
// ten samples beyond it; then the result line the driver reads.
func printResult(rec *record) {
	res := rec.Result
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Printf("%-40s %14d\n%-40s %14d\n", "attempted", res.Attempted, "failed", res.Failed)
	if rec.Info != nil && rec.Info.TailQuantile > 0 {
		fmt.Printf("%-40s %14.6g s\n", fmt.Sprintf("proof_latency_s_p%g", 100*rec.Info.TailQuantile), rec.Info.TailSeconds)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// appendRecord adds the run to the run-set file.
func appendRecord(e *env, path string, rec *record) error {
	if path == "" {
		path = filepath.Join(e.outDir, "runs.jsonl")
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSmoke runs every workload untraced and traced at logGates 8 with two
// operations each: the runner, the correctness checks and the span writer,
// without the long sizes.
func runSmoke(seed int64) error {
	e, err := newEnv(seed, 0, true)
	if err != nil {
		return err
	}
	for _, entry := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := runOne(entry.w, e, traced, true)
			if err != nil {
				return fmt.Errorf("%s (trace %v): %w", entry.w.name, traced, err)
			}
			if !rec.Result.Correct {
				return fmt.Errorf("%s (trace %v): %d of %d operations failed", entry.w.name, traced, rec.Result.Failed, rec.Result.Attempted)
			}
			fmt.Printf("smoke %-20s trace=%-5v ops=%d ok\n", entry.w.name, traced, rec.Result.Attempted)
		}
	}
	return nil
}
