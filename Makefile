GO ?= go

.PHONY: build test test-purego cross-build race bench-smoke bench-json bench-msm bench-sumcheck bench-mem bench-cluster mem-smoke chaos-smoke soak-smoke fmt vet lint fuzz-smoke docs

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The reference leg: -tags purego compiles the amd64 fp.Mul kernel out
# (internal/fp/mul_amd64.s), so fp, the curve/pcs layers on top of it and
# the golden proof-byte pins in hyperplonk run on the portable Go path.
test-purego:
	$(GO) test -tags purego ./internal/fp ./internal/curve ./internal/pcs ./internal/hyperplonk

# The non-amd64 fallback must keep compiling.
cross-build:
	GOARCH=arm64 $(GO) build ./...

race:
	$(GO) test -race ./...

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# Invariant gate: gofmt + go vet + the zkvet analyzer suite
# (internal/analysis) over the whole module — proof-path determinism,
# lazy-reduction window guards, arena Get/Put pairing, raw goroutines,
# error paths. See DESIGN.md §6.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/zkvet ./...

# Run every Fuzz target in the tree for FUZZTIME (default 10s) each.
fuzz-smoke:
	sh scripts/fuzzsmoke.sh

# Documentation gate: every package must carry a godoc package comment.
docs:
	sh scripts/checkdocs.sh

# Quick kernel benchmarks: one iteration of the small parallel-engine
# benchmarks plus quick benchjson passes (all kernels, then the MSM-only
# GLV series). Used by CI as a smoke signal that the hot kernels still run
# and report.
bench-smoke:
	$(GO) test -run='^$$' -bench='BenchmarkMLEFold/2\^16|BenchmarkMLEEvaluate/2\^16|BenchmarkCurveMSM/2\^16|BenchmarkProveSession' -benchtime=1x .
	$(GO) run ./cmd/benchjson -quick -o /tmp/bench_smoke.json
	$(GO) run ./cmd/benchjson -quick -msm -o /tmp/bench_smoke_msm.json
	$(GO) run ./cmd/benchjson -quick -sumcheck -o /tmp/bench_smoke_sumcheck.json

# Full kernel measurement at the sizes the bench trajectory tracks
# (2^16–2^20 MSMs; end-to-end Prove at logGates=16). Takes minutes.
# Override the output record per PR: `make bench-json OUT=BENCH_pr6.json`
# (the default preserves the PR 4 record name for continuity).
bench-json:
	$(GO) run ./cmd/benchjson -o $(or $(OUT),BENCH_pr4.json)

# The GLV before/after record alone: curve.MSM at 2^16–2^20 against the
# BENCH_pr2.json serial numbers. Minutes, not tens of minutes. Writes a
# separate file (override with OUT=...) so the full-kernel record is
# never clobbered by a 3-series run.
bench-msm:
	$(GO) run ./cmd/benchjson -msm -o $(or $(OUT),BENCH_pr4_msm.json)

# The scalar-field (SumCheck fast path) record alone: per-round scan at
# 2^16–2^20, eq-factorized ZeroCheck, perm.Build, mle.Evaluate, and the
# end-to-end Prove, against the PR 4 serial baselines. Minutes.
# Override the output record with OUT=... as above.
bench-sumcheck:
	$(GO) run ./cmd/benchjson -sumcheck -o $(or $(OUT),BENCH_pr5.json)

# The memory (streaming out-of-core prover) record: end-to-end Prove at
# logGates=18 in-core vs streamed under a half-peak memory budget, both
# peaks sampled by internal/membench and the proof bytes compared before
# the record is written. Minutes. Override the output with OUT=... and the
# size with LG=... (e.g. `make bench-mem LG=16` on small runners).
bench-mem:
	$(GO) run ./cmd/benchjson -mem -mem-loggates $(or $(LG),18) -o $(or $(OUT),BENCH_pr8.json)

# Memory-budget conformance smoke: the regression test at logGates=16
# (CI-sized; the checked-in default is 18) plus a quick -mem record.
# GOMEMLIMIT is set per-row by the harness (membench.SampleUnderLimit); the
# ulimit is a 4 GiB hard address-space backstop so a prover that ignores its
# budget fails fast with an allocation error instead of paging the runner or
# waking the OOM killer. (Virtual size, not RSS: the Go runtime's reserved
# arenas sit far above any resident peak, so the backstop is loose by
# design.)
mem-smoke:
	ulimit -v 4194304 && \
	ZKPHIRE_MEMBUDGET_LOGGATES=16 $(GO) test -run TestMemoryBudgetRegression -v -count=1 . && \
	$(GO) run ./cmd/benchjson -mem -quick -o /tmp/bench_mem_smoke.json

# The distribution (coordinator + worker pool) record: end-to-end prove
# throughput through an in-process cluster at pool sizes 1-4 over the
# real HTTP dispatch protocol. Minutes. Override the output with OUT=...
# as above.
bench-cluster:
	$(GO) run ./cmd/benchjson -cluster -o $(or $(OUT),BENCH_pr10.json)

# Chaos smoke: the fault-injection suite under the race detector — the
# in-process randomized fault rounds, the re-exec crash/replay
# conformance harness (children are killed without unwinding at
# journal/queue fault points), and the journal + panic-isolation +
# retry + drain tests they build on. See DESIGN.md §9.
chaos-smoke:
	$(GO) test -race -count=1 -v \
		-run 'TestChaos|TestPanicIsolation|TestTransientFailureRetried|TestIdempotencyKeyLifecycle|TestRecoverJournalReplaysPending|TestReplayAfterRestartAndCompact|TestDrainStopsAdmission' \
		./internal/service/
	$(GO) test -race -count=1 ./internal/journal/ ./internal/faultinject/ ./internal/retry/

# Distributed soak: the full internal/cluster suite under the race
# detector, ending in the multi-process kill-and-restart soak — a real
# coordinator child and three worker children (one behind injected
# network faults), a worker SIGKILLed and replaced mid-batch, then the
# coordinator SIGKILLed and restarted on the same address and journal;
# every keyed job must settle exactly once with golden proof bytes. The
# -timeout is the wall-clock cap. See DESIGN.md §10. A quick -cluster
# throughput record rides along for the CI artifact.
soak-smoke:
	$(GO) test -race -count=1 -v -timeout 300s ./internal/cluster/
	$(GO) run ./cmd/benchjson -cluster -quick -o /tmp/bench_cluster_smoke.json
