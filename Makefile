GO ?= go

.PHONY: build test test-purego cross-build race bench-smoke mem-smoke chaos-smoke soak-smoke fmt vet lint fuzz-smoke docs

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The reference leg: -tags purego compiles all five assembly files out —
# fp.Mul (internal/fp/mul_amd64.s), the fp.Lanes AVX-512 IFMA body behind
# the curve layer's chord queue and window reduction
# (internal/fp/lanes_amd64.s), ff's Mul (internal/ff/mul_amd64.s), the
# ff.Lanes IFMA body behind the SumCheck scan, FoldVec, the permutation
# build and the table combination (internal/ff/lanes_amd64.s) and the one
# CPUID/XGETBV probe that picks them (internal/cpu/cpu_amd64.s, whose ADX
# and IFMA become the constant false) — so both fields, with Square as
# mulGeneric(x, x), the portable bodies of fp.Lanes and ff.Lanes (the lane
# tests of fp, ff, poly, sumcheck, perm and curve run them here instead of
# skipping), the curve/pcs layers, the permutation argument and the
# SumCheck scan (poly's lane evaluator, mle, sumcheck) on top of them, and
# the golden proof-byte pins in hyperplonk run on the portable Go path.
test-purego:
	$(GO) test -tags purego ./internal/cpu ./internal/fp ./internal/ff ./internal/poly ./internal/mle ./internal/sumcheck ./internal/perm ./internal/curve ./internal/pcs ./internal/hyperplonk

# The non-amd64 fallback must keep compiling: the build, and go vet, which
# also compiles the test files behind !amd64 build tags.
cross-build:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./...

race:
	$(GO) test -race ./...

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

# Invariant gate: gofmt + go vet + the zkvet analyzer suite
# (internal/analysis) over the whole module — determinism (proof path),
# release (arena buffers released by defer; one
# recover), norawgo (raw goroutines), errorpath (Unmarshal panics, %w
# wrapping). `go test ./...` runs the same
# suite (TestModuleClean), so CI needs no separate lint step. See
# DESIGN.md §6.
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/zkvet ./...

# Run every Fuzz target in the tree for FUZZTIME (default 10s) each.
fuzz-smoke:
	sh scripts/fuzzsmoke.sh

# Documentation gate: every package carries a godoc package comment;
# README/DESIGN/ARCHITECTURE, this Makefile and ci.yml name no cmd/<dir>,
# BENCH*.json or *.md file, or make target, that does not exist; and
# README/DESIGN/ARCHITECTURE name no backticked pkg.Ident that its
# internal/ package no longer declares.
docs:
	sh scripts/checkdocs.sh

# Every BENCHMARK.json workload and its traced pass at logGates 8, with
# the runner's correctness checks (`go test ./bench` runs the same pass).
bench-smoke:
	$(GO) run ./bench -smoke

# Memory-budget regression: the test at its checked-in 2^18 gates, where
# the streamed peak must stay within the budget and under half the in-core
# peak. GOMEMLIMIT is set per-row by the harness
# (membench.SampleUnderLimit); the ulimit is a 4 GiB hard
# address-space backstop so a prover that ignores its budget fails fast
# with an allocation error instead of paging the runner or waking the OOM
# killer. (Virtual size, not RSS: the Go runtime's reserved arenas sit far
# above any resident peak, so the backstop is loose by design.)
mem-smoke:
	ulimit -v 4194304 && \
	$(GO) test -run TestMemoryBudgetRegression -v -count=1 .

# Chaos smoke: the whole internal/service suite under the race detector
# (no -run list to fall out of date) — the in-process randomized fault
# rounds, the re-exec crash/replay conformance harness (children are
# killed without unwinding at journal/queue fault points), cancel
# mid-proof, the cycling test, and the journal + panic-isolation + retry
# + drain tests they build on — then the queue's own tests 50 more times,
# since they prove nothing and the admission gate's ordering races only
# show across repeats. See DESIGN.md §9.
chaos-smoke:
	$(GO) test -race -count=1 -v ./internal/service/
	$(GO) test -race -count=50 -run '^TestQueue' ./internal/service/
	$(GO) test -race -count=1 ./internal/journal/ ./internal/faultinject/ ./internal/retry/

# Distributed soak: the full internal/cluster suite under the race
# detector — the client-API conformance table against both topologies
# included — ending in the multi-process kill-and-restart soak — a real
# coordinator child and three worker children (one behind injected
# network faults), a worker SIGKILLed and replaced mid-batch, then the
# coordinator SIGKILLed and restarted on the same address and journal;
# every keyed job must settle exactly once with golden proof bytes. The
# -timeout is the wall-clock cap. See DESIGN.md §10.
soak-smoke:
	$(GO) test -race -count=1 -v -timeout 300s ./internal/cluster/
