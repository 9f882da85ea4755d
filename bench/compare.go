package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// manifestFile is BENCHMARK.json.
type manifestFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadManifest(path string) (*manifestFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifestFile
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// loadRuns reads the untraced, full-size records of a run-set file.
func loadRuns(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace && !r.Smoke && r.Result != nil {
			runs = append(runs, r)
		}
	}
	return runs, sc.Err()
}

// compareFiles prints, per workload and end-to-end metric, both sets'
// medians over their runs, how much worse b is than a, and the bound; ok is
// false when any pair is outside its bound. Sets from different runners are
// refused: a difference between machines is not a difference between
// commits.
func compareFiles(w io.Writer, manifestPath, pathA, pathB string) (ok bool, err error) {
	man, err := loadManifest(manifestPath)
	if err != nil {
		return false, err
	}
	a, err := loadRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return false, err
	}
	if len(a) == 0 || len(b) == 0 {
		return false, fmt.Errorf("no untraced runs to compare (%d in %s, %d in %s)", len(a), pathA, len(b), pathB)
	}
	for _, r := range append(append([]record(nil), a...), b...) {
		if r.NumCPU != a[0].NumCPU || r.GOMAXPROCS != a[0].GOMAXPROCS || r.GoVersion != a[0].GoVersion || r.Seconds != a[0].Seconds {
			return false, fmt.Errorf("runs come from different runners or run lengths (%d cpu, GOMAXPROCS %d, %s, %gs vs %d, %d, %s, %gs)",
				a[0].NumCPU, a[0].GOMAXPROCS, a[0].GoVersion, a[0].Seconds, r.NumCPU, r.GOMAXPROCS, r.GoVersion, r.Seconds)
		}
	}
	values := func(runs []record, workload, name string) (vals []float64, failed int) {
		for _, r := range runs {
			if r.Workload != workload {
				continue
			}
			failed += r.Result.Failed
			if m, ok := r.Result.Metrics[name]; ok {
				vals = append(vals, m.Value)
			}
		}
		return vals, failed
	}
	ok = true
	fmt.Fprintf(w, "%-20s %-20s %5s %12s %12s %8s %7s\n", "workload", "metric", "runs", "a", "b", "worse", "bound")
	for _, wl := range man.Workloads {
		for _, em := range man.EndToEnd {
			va, failedA := values(a, wl.Name, em.Name)
			vb, failedB := values(b, wl.Name, em.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue // the sets do not cover this workload
			}
			if len(va) == 0 || len(vb) == 0 {
				ok = false
				fmt.Fprintf(w, "%-20s %-20s missing from one set\n", wl.Name, em.Name)
				continue
			}
			ma, mb := median(va), median(vb)
			worse := relWorse(ma, mb, em.Better == "lower")
			verdict := ""
			if worse > *em.Bound {
				ok = false
				verdict = "  OUTSIDE BOUND"
			}
			if failedB > failedA {
				ok = false
				verdict += "  MORE FAILED OPS"
			}
			fmt.Fprintf(w, "%-20s %-20s %2d/%-2d %12.6g %12.6g %+7.2f%% %6.1f%%%s\n",
				wl.Name, em.Name, len(va), len(vb), ma, mb, 100*worse, 100**em.Bound, verdict)
		}
	}
	return ok, nil
}
