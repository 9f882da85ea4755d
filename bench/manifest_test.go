package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const manifestPath = "../BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// TestManifestSchema holds BENCHMARK.json to the limits a driver refuses a
// manifest over, before a single run.
func TestManifestSchema(t *testing.T) {
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("manifest is %d bytes, limit 64 KiB", len(raw))
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if got, want := strings.Join(keys, " "), "command end_to_end paths per_layer run_seconds workloads"; got != want {
		t.Errorf("top-level keys %q, want exactly %q", got, want)
	}
	for section, want := range map[string]string{
		"workloads":  "name why",
		"end_to_end": "better bound name unit",
		"per_layer":  "better name unit",
	} {
		var entries []map[string]json.RawMessage
		if err := json.Unmarshal(top[section], &entries); err != nil {
			t.Fatalf("%s: %v", section, err)
		}
		for i, entry := range entries {
			var ks []string
			for k := range entry {
				ks = append(ks, k)
			}
			sort.Strings(ks)
			if got := strings.Join(ks, " "); got != want {
				t.Errorf("%s[%d] has keys %q, want exactly %q", section, i, got, want)
			}
		}
	}

	m, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(m.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings, want 1..32", n)
	}
	for _, arg := range m.Command {
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || strings.Contains(arg, "..") {
			t.Errorf("command argument %q is too long, absolute, or leaves the repository", arg)
		}
	}
	if n := len(m.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths, want 1..16", n)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q is not a plain relative directory", p)
		}
	}
	if len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d differs from the runner's default %d", m.RunSeconds, defaultSeconds)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range m.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of 1..200 characters, got %d", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	hasSetup := false
	for _, em := range m.EndToEnd {
		name("end-to-end", em.Name)
		if !unitRE.MatchString(em.Unit) {
			t.Errorf("%s: unit %q", em.Name, em.Unit)
		}
		if em.Better != "lower" && em.Better != "higher" {
			t.Errorf("%s: better %q", em.Name, em.Better)
		}
		if em.Bound == nil || *em.Bound < 0 || *em.Bound > 0.25 {
			t.Errorf("%s: bound missing or outside 0..0.25", em.Name)
		}
		if em.Name == "setup_s" {
			hasSetup = em.Unit == "s" && em.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	for _, lm := range m.PerLayer {
		name("per-layer", lm.Name)
		if !unitRE.MatchString(lm.Unit) {
			t.Errorf("%s: unit %q", lm.Name, lm.Unit)
		}
		if lm.Better != "lower" && lm.Better != "higher" {
			t.Errorf("%s: better %q", lm.Name, lm.Better)
		}
	}

	// All the runs the driver makes, with set-up and two builds, must fit.
	runs := 4 + 22*len(m.Workloads)
	if budget := 3420.0 / float64(runs); float64(m.RunSeconds) > budget/2 {
		t.Errorf("run_seconds %d leaves less than half of the %.0f s a run may take for set-up, warm-up and checks", m.RunSeconds, budget)
	}
}

// TestManifestMatchesRunner pins the manifest and the runner's own tables to
// each other: no name the runner can emit is missing from the manifest and
// none in the manifest is an orphan.
func TestManifestMatchesRunner(t *testing.T) {
	m, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range m.Workloads {
		got = append(got, w.Name+" | "+w.Why)
	}
	for _, w := range workloads {
		want = append(want, w.w.name+" | "+w.why)
	}
	diff(t, "workloads", got, want)

	got, want = nil, nil
	for _, em := range m.EndToEnd {
		b, _ := json.Marshal(em.Bound)
		got = append(got, strings.Join([]string{em.Name, em.Unit, em.Better, string(b)}, " "))
	}
	for _, em := range endToEnd {
		b, _ := json.Marshal(em.bound)
		want = append(want, strings.Join([]string{em.name, em.unit, em.better, string(b)}, " "))
	}
	diff(t, "end_to_end", got, want)

	got, want = nil, nil
	for _, lm := range m.PerLayer {
		got = append(got, strings.Join([]string{lm.Name, lm.Unit, lm.Better}, " "))
	}
	for _, lm := range perLayer {
		want = append(want, strings.Join([]string{lm.name, lm.unit, lm.better}, " "))
	}
	diff(t, "per_layer", got, want)
}

func diff(t *testing.T, section string, got, want []string) {
	t.Helper()
	in := func(xs []string) map[string]bool {
		m := map[string]bool{}
		for _, x := range xs {
			m[x] = true
		}
		return m
	}
	g, w := in(got), in(want)
	for x := range g {
		if !w[x] {
			t.Errorf("%s: manifest has %q, the runner does not", section, x)
		}
	}
	for x := range w {
		if !g[x] {
			t.Errorf("%s: the runner has %q, the manifest does not", section, x)
		}
	}
}

// TestLayerPredictions checks that every per-layer metric says where it is
// measured and which end-to-end metric on which workload it should move.
func TestLayerPredictions(t *testing.T) {
	wl := map[string]bool{}
	for _, w := range workloads {
		wl[w.w.name] = true
	}
	e2e := map[string]bool{}
	for _, em := range endToEnd {
		e2e[em.name] = true
	}
	for _, lm := range perLayer {
		if lm.home != "all" && !wl[lm.home] {
			t.Errorf("%s: home %q is not a workload", lm.name, lm.home)
		}
		if lm.movesMetric == "" && lm.movesWorkload == "" {
			continue // diagnostic: predicted to move nothing
		}
		if !e2e[lm.movesMetric] || !wl[lm.movesWorkload] {
			t.Errorf("%s: should move %q on %q, which is not an end-to-end metric on a workload", lm.name, lm.movesMetric, lm.movesWorkload)
		}
	}
}
