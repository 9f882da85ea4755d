// Package faultinject is the repository's controlled-failure switchboard:
// named failure points threaded through the I/O and job-dispatch layers
// (spill page writes/reads, offloaded SRS level loads, journal appends,
// the service queue) that tests and the chaos harness arm to make a
// specific site fail in a specific way — return a transient error, panic,
// or crash the whole process — with a per-point probability and budget.
//
// Production cost is one atomic load per site: until something arms a
// fault the package is a no-op, and nothing in the repository arms faults
// outside tests. Points are plain dotted names ("spill.write",
// "journal.append"); the full set in use is listed in DESIGN.md §9.
// The cluster layer adds network-shaped points — "cluster.heartbeat",
// "cluster.dispatch", "cluster.fetch" — so the chaos harness can
// partition a worker (its RPCs fail, the process lives) instead of
// killing it; the name constants live in internal/cluster.
//
// Faults arm programmatically (Arm/Reset) or from the environment
// (ArmFromEnv reads ZKPHIRE_FAULTS), which is how the crash/replay
// harness reaches into a child daemon process:
//
//	ZKPHIRE_FAULTS="journal.append:crash:0.5:1,spill.read:error:1:2"
//
// arms a 50%-probability one-shot crash at journal.append and an
// always-firing two-shot transient error at spill.read. The draw sequence
// is seeded (ZKPHIRE_FAULT_SEED) so a chaos round can be replayed.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Mode is what an armed fault does when it fires.
type Mode int

const (
	// ModeError makes Hit return a transient injected error.
	ModeError Mode = iota
	// ModePanic makes Hit panic — the job-boundary containment test.
	ModePanic
	// ModeCrash exits the process immediately (exit code 137, the same a
	// SIGKILL produces) — no deferred cleanup runs, which is the point:
	// the journal must survive an un-unwound death.
	ModeCrash
)

func (m Mode) String() string {
	switch m {
	case ModeError:
		return "error"
	case ModePanic:
		return "panic"
	case ModeCrash:
		return "crash"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// CrashExitCode is the exit status of a ModeCrash firing.
const CrashExitCode = 137

// Fault describes one armed failure.
type Fault struct {
	// Mode selects error / panic / crash.
	Mode Mode
	// Prob is the per-hit firing probability; 0 means 1 (always).
	Prob float64
	// Count caps how many times the fault fires; 0 means unlimited. A
	// fired crash obviously needs no bookkeeping, but a Count lets the
	// harness arm "crash once, then run clean" in a single child run.
	Count int
	// Err overrides the error returned in ModeError (default ErrInjected).
	Err error
}

// injectedError is the ModeError payload. It implements Transient() so
// the retry layer classifies it without this package importing retry.
type injectedError struct{ point string }

func (e *injectedError) Error() string   { return "faultinject: injected fault at " + e.point }
func (e *injectedError) Transient() bool { return true }
func (e *injectedError) Is(err error) bool {
	return err == ErrInjected
}

// ErrInjected is the sentinel all injected errors match with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

type armedFault struct {
	Fault
	fired int
}

var (
	armed atomic.Bool // fast path: no faults armed anywhere

	mu     sync.Mutex
	points map[string]*armedFault
	rng    *rand.Rand
	// exit is swapped out by tests of ModeCrash itself; everything else
	// genuinely dies.
	exit func(int) = os.Exit
)

// Enabled reports whether any fault is armed. It is the one check hot
// paths pay.
func Enabled() bool { return armed.Load() }

// Arm installs (or replaces) the fault at point.
func Arm(point string, f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if points == nil {
		points = make(map[string]*armedFault)
	}
	if f.Prob <= 0 {
		f.Prob = 1
	}
	points[point] = &armedFault{Fault: f}
	armed.Store(true)
}

// Reset disarms everything and reseeds the draw sequence.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	points = nil
	rng = nil
	armed.Store(false)
}

// Seed fixes the firing-draw sequence so a chaos round replays.
func Seed(seed int64) {
	mu.Lock()
	defer mu.Unlock()
	rng = rand.New(rand.NewSource(seed))
}

// Hit is the instrumentation call sites place at a failure point. With no
// fault armed at name it costs one atomic load and returns nil. An armed
// fault fires with its probability until its count is spent: ModeError
// returns the injected (transient) error, ModePanic panics, ModeCrash
// exits the process without unwinding.
func Hit(name string) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	f, ok := points[name]
	if !ok {
		mu.Unlock()
		return nil
	}
	if f.Count > 0 && f.fired >= f.Count {
		mu.Unlock()
		return nil
	}
	if f.Prob < 1 {
		if rng == nil {
			rng = rand.New(rand.NewSource(1))
		}
		if rng.Float64() >= f.Prob {
			mu.Unlock()
			return nil
		}
	}
	f.fired++
	mode, errOverride := f.Mode, f.Err
	mu.Unlock()

	switch mode {
	case ModePanic:
		panic(fmt.Sprintf("faultinject: injected panic at %s", name))
	case ModeCrash:
		fmt.Fprintf(os.Stderr, "faultinject: injected crash at %s\n", name)
		exit(CrashExitCode)
		return nil // only reached when tests stub exit
	default:
		if errOverride != nil {
			return errOverride
		}
		return &injectedError{point: name}
	}
}

// EnvVar and EnvSeedVar are the environment knobs ArmFromEnv reads.
const (
	EnvVar     = "ZKPHIRE_FAULTS"
	EnvSeedVar = "ZKPHIRE_FAULT_SEED"
)

// ArmFromEnv arms faults from ZKPHIRE_FAULTS (comma-separated
// point:mode[:prob[:count]] clauses; mode is error|panic|crash) and seeds
// the draw sequence from ZKPHIRE_FAULT_SEED when set. An empty or unset
// variable is a no-op. cmd/zkphired calls it at startup so the chaos
// harness can reach a child daemon.
func ArmFromEnv() error {
	if s := os.Getenv(EnvSeedVar); s != "" {
		seed, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("faultinject: %s=%q: %w", EnvSeedVar, s, err)
		}
		Seed(seed)
	}
	spec := os.Getenv(EnvVar)
	if spec == "" {
		return nil
	}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		parts := strings.Split(clause, ":")
		if len(parts) < 2 || len(parts) > 4 {
			return fmt.Errorf("faultinject: bad clause %q (want point:mode[:prob[:count]])", clause)
		}
		var f Fault
		switch parts[1] {
		case "error":
			f.Mode = ModeError
		case "panic":
			f.Mode = ModePanic
		case "crash":
			f.Mode = ModeCrash
		default:
			return fmt.Errorf("faultinject: bad mode %q in clause %q", parts[1], clause)
		}
		if len(parts) >= 3 {
			p, err := strconv.ParseFloat(parts[2], 64)
			if err != nil || p < 0 || p > 1 {
				return fmt.Errorf("faultinject: bad probability %q in clause %q", parts[2], clause)
			}
			f.Prob = p
		}
		if len(parts) == 4 {
			c, err := strconv.Atoi(parts[3])
			if err != nil || c < 0 {
				return fmt.Errorf("faultinject: bad count %q in clause %q", parts[3], clause)
			}
			f.Count = c
		}
		Arm(parts[0], f)
	}
	return nil
}
