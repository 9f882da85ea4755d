package hyperplonk

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"zkphire/internal/ff"
	"zkphire/internal/gates"
	"zkphire/internal/pcs"
)

// residency is one way of holding the prover's inputs: everything in core, or
// the full bounded-memory stack (offloaded SRS, σ rebuilt per step from the
// circuit's permutation). There is one schedule; these are its two residency
// policies.
type residency struct {
	name     string
	budgeted bool
}

var residencies = []residency{{"in-core", false}, {"budgeted", true}}

// setup preprocesses c for this residency. The budgeted case takes a fresh
// SRS with testSRS's parameters because Offload is sticky.
func (r residency) setup(t testing.TB, srsVars int, c *gates.Circuit) (*pcs.SRS, *Index, Config) {
	t.Helper()
	srs := testSRS
	if r.budgeted || srsVars != testSRS.MaxVars {
		srs = pcs.SetupDeterministic(srsVars, 777)
	}
	if r.budgeted {
		if err := srs.Offload(t.TempDir(), 1); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := PreprocessWorkers(srs, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.budgeted {
		idx.SigmaTabs = nil
	}
	return srs, idx, Config{}
}

// TestScheduleMatrix pins the one schedule against the golden digests at
// every worker budget and under both residency policies: worker counts and
// table residency never reach the transcript, so every cell must reproduce
// the pinned bytes — the reference is the pin, not another run.
func TestScheduleMatrix(t *testing.T) {
	for _, g := range goldenProofs {
		c := buildVanillaCircuit(t, 3, g.numVars)
		if g.name == "jellyfish" {
			c = buildJellyfishCircuit(t, g.numVars)
		}
		for _, r := range residencies {
			srs, idx, cfg := r.setup(t, testSRS.MaxVars, c)
			for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
				t.Run(fmt.Sprintf("%s/nv=%d/%s/workers=%d", g.name, g.numVars, r.name, w), func(t *testing.T) {
					cfg.Workers = w
					proof, err := Prove(context.Background(), srs, idx, c, cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkGolden(t, g, proof)
					if err := Verify(srs, idx, proof); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// buildDenseCircuit fills nearly all 2^numVars rows with a multiply-add chain
// of distinct values, so the wire tables are dense and step 1's MSMs are as
// long as they get at this size (the cubic test circuit's wires are almost
// all zero and commit in microseconds).
func buildDenseCircuit(t testing.TB, numVars int) *gates.Circuit {
	t.Helper()
	b := gates.NewVanillaBuilder()
	x := b.NewVariable(ff.NewElement(2))
	acc := x
	for i := 0; i < (1<<uint(numVars))/2-8; i++ {
		acc = b.Mul(acc, x)
		acc = b.Add(acc, x)
	}
	c, err := b.Build(numVars)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// pollCtx counts the prover's ctx.Err() polls and cancels itself at the
// cancelAt-th one (0 = never). Every kernel's chunk decomposition depends
// only on (size, workers), and steps are barriers, so the number of polls a
// proof has made by the time a step starts is the same on every run: a poll
// count is a deterministic position inside the proof, which a sleep is not.
type pollCtx struct {
	context.Context
	cancel   context.CancelFunc
	polls    atomic.Int64
	cancelAt int64
	firedAt  atomic.Int64 // UnixNano of the cancel; 0 until it fires
}

func newPollCtx(cancelAt int64) *pollCtx {
	ctx, cancel := context.WithCancel(context.Background())
	return &pollCtx{Context: ctx, cancel: cancel, cancelAt: cancelAt}
}

func (c *pollCtx) Err() error {
	if c.polls.Add(1) == c.cancelAt {
		c.firedAt.Store(time.Now().UnixNano())
		c.cancel()
	}
	return c.Context.Err()
}

// TestCancellationMidStep cancels a proof *inside* step 1 (the wire-commit
// MSMs) and *inside* step 5 (OpenCheck + witness MSMs), in core and
// budgeted. Prove must return context.Canceled itself — not a step's
// wrapping of it, not a finished proof — within a fraction of the time the
// uncancelled step takes: the cancel has to land in the kernels' poll loops,
// not at the next step boundary. Afterwards no goroutine may be left behind
// by the kernels that were interrupted.
func TestCancellationMidStep(t *testing.T) {
	// At 2^13 gates step 1 takes 60–80 ms on a 2-core host, so a quarter
	// of it stays well above the 6–8 ms a scheduler outlier can add.
	const nv, workers = 13, 2
	c := buildDenseCircuit(t, nv)
	for _, r := range residencies {
		t.Run(r.name, func(t *testing.T) {
			srs, idx, cfg := r.setup(t, nv+1, c)
			cfg.Workers = workers
			if _, err := Prove(context.Background(), srs, idx, c, cfg); err != nil { // warm arenas and φ-tables
				t.Fatal(err)
			}
			baseline := runtime.NumGoroutine()

			// Reference run, driven step by step: where (in polls) steps 1
			// and 5 start and end, and how long each takes uncancelled.
			ref := newPollCtx(0)
			p := newProver(ref, srs, idx, c, workers)
			start := time.Now()
			if err := p.commitWires(); err != nil {
				t.Fatal(err)
			}
			step1Polls, step1Time := ref.polls.Load(), time.Since(start)
			rGate, err := p.gateZeroCheck()
			if err != nil {
				t.Fatal(err)
			}
			arg, rPerm, err := p.permCheck()
			if err != nil {
				t.Fatal(err)
			}
			if err := p.batchEvals(arg.V, rPerm); err != nil {
				t.Fatal(err)
			}
			step5From := ref.polls.Load()
			start = time.Now()
			if err := p.openings(arg.V, rGate, rPerm); err != nil {
				t.Fatal(err)
			}
			step5Polls, step5Time := ref.polls.Load()-step5From, time.Since(start)

			for _, tc := range []struct {
				step     string
				cancelAt int64
				stepTime time.Duration
			}{
				{"step1", step1Polls / 4, step1Time},
				{"step5", step5From + step5Polls/4, step5Time},
			} {
				if tc.cancelAt < 1 {
					t.Fatalf("%s: only a handful of ctx polls in the whole step; it cannot be cancelled mid-kernel", tc.step)
				}
				ctx := newPollCtx(tc.cancelAt)
				proof, err := Prove(ctx, srs, idx, c, cfg)
				returned := time.Now().UnixNano()
				if proof != nil || err != context.Canceled {
					t.Fatalf("%s: Prove = (%v, %v), want (nil, bare context.Canceled)", tc.step, proof, err)
				}
				// Cancelled a quarter of the way in, an abort at the next
				// step boundary would take ~3/4 of the step.
				lat := time.Duration(returned - ctx.firedAt.Load())
				t.Logf("%s: cancelled at poll %d, returned %v later; uncancelled step %v", tc.step, tc.cancelAt, lat, tc.stepTime)
				if lat > tc.stepTime/4 {
					t.Fatalf("%s: cancellation took %v of an uncancelled step time of %v", tc.step, lat, tc.stepTime)
				}
			}

			waitGoroutines(t, baseline)
		})
	}
}

// TestProveGoroutineDrain proves repeatedly — including pre-cancelled runs —
// under both residency policies and checks the goroutine count returns to
// its baseline: every parallel.Run/For worker exits before Prove returns.
func TestProveGoroutineDrain(t *testing.T) {
	c := buildVanillaCircuit(t, 3, 6)
	for _, r := range residencies {
		t.Run(r.name, func(t *testing.T) {
			srs, idx, cfg := r.setup(t, testSRS.MaxVars, c)
			cfg.Workers = 2
			baseline := runtime.NumGoroutine()
			for i := 0; i < 5; i++ {
				if _, err := Prove(context.Background(), srs, idx, c, cfg); err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				if _, err := Prove(ctx, srs, idx, c, cfg); err != context.Canceled {
					t.Fatalf("pre-cancelled Prove error = %v, want bare context.Canceled", err)
				}
			}
			waitGoroutines(t, baseline)
		})
	}
}

// waitGoroutines waits for the goroutine count to fall back to baseline; the
// runtime may retire goroutines lazily, so it polls briefly before failing.
func waitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
