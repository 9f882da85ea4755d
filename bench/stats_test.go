package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3}, 0.5, 3},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{1, 2, 3, 4, 5}, 0.9, 4.6},
		{[]float64{10, 20}, 0.25, 12.5},
	} {
		if got := percentile(tc.xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.q, got, tc.want)
		}
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of nothing = %v, want NaN", got)
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("median reordered its input")
	}
}

// TestTailRule pins the "at least ten samples beyond" rule: p90 needs 100
// samples, p99 needs 1000, and 240 samples leave 24 beyond p90.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{99, 0.9, false}, {100, 0.9, true}, {240, 0.9, true},
		{240, 0.99, false}, {999, 0.99, false}, {1000, 0.99, true},
		{10, 0.5, false}, {20, 0.5, true},
	} {
		if got := tailAllowed(tc.n, tc.q); got != tc.want {
			t.Errorf("tailAllowed(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{{50, 0, false}, {240, 0.9, true}, {1500, 0.99, true}, {10000, 0.999, true}} {
		if q, ok := highestTail(tc.n); q != tc.want || ok != tc.ok {
			t.Errorf("highestTail(%d) = %v, %v, want %v, %v", tc.n, q, ok, tc.want, tc.ok)
		}
	}
}

func TestRelWorse(t *testing.T) {
	for _, tc := range []struct {
		base, got float64
		lower     bool
		want      float64
	}{
		{10, 11, true, 0.1},
		{10, 9, true, -0.1},
		{10, 9, false, 0.1},
		{10, 11, false, -0.1},
		{0, 0, true, 0},
	} {
		if got := relWorse(tc.base, tc.got, tc.lower); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("relWorse(%v, %v, %v) = %v, want %v", tc.base, tc.got, tc.lower, got, tc.want)
		}
	}
	if got := relWorse(0, 1, true); !math.IsInf(got, 1) {
		t.Errorf("relWorse from zero = %v, want +Inf", got)
	}
}

// TestCompare drives -compare over two small run sets: within bounds, one
// metric outside its bound, and sets from different runners.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	var bound float64
	for _, em := range endToEnd {
		if em.name == "proof_latency_s_p50" {
			bound = em.bound
		}
	}
	set := func(name string, cpus int, latencies ...float64) string {
		var buf bytes.Buffer
		for i, l := range latencies {
			rec := record{Workload: "vanilla16", Seed: int64(i), Seconds: 12, NumCPU: cpus, GOMAXPROCS: cpus, GoVersion: "go1.24.0",
				Result: &result{Correct: true, Attempted: 3, Metrics: metrics{}}}
			for _, em := range endToEnd {
				rec.Result.Metrics[em.name] = metric{1, em.unit}
			}
			rec.Result.Metrics["proof_latency_s_p50"] = metric{l, "s"}
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	within, beyond := 1+bound/2, 1+bound+0.05
	base := set("a.jsonl", 2, 4.0, 4.1, 3.9)
	same := set("b.jsonl", 2, 4.1*within, 4.0*within, 4.2*within)
	slow := set("c.jsonl", 2, 4.1*beyond, 4.0*beyond, 4.2*beyond)
	other := set("d.jsonl", 4, 4.0, 4.1, 3.9)

	var out bytes.Buffer
	ok, err := compareFiles(&out, manifestPath, base, same)
	if err != nil || !ok {
		t.Errorf("sets half a bound apart: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	ok, err = compareFiles(&out, manifestPath, base, slow)
	if err != nil || ok {
		t.Errorf("sets more than a bound apart: ok=%v err=%v", ok, err)
	}
	if !strings.Contains(out.String(), "OUTSIDE BOUND") {
		t.Errorf("no OUTSIDE BOUND verdict in:\n%s", out.String())
	}
	if _, err := compareFiles(&out, manifestPath, base, other); err == nil {
		t.Error("sets from different runners were compared")
	}
}
