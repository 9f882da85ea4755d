package main

import (
	"os"
	"testing"
)

// TestSmoke is `bench -smoke` under go test: every workload and its traced
// pass at logGates 8 with two operations, so tier-1 exercises the runner,
// the correctness checks (verification, one sha256 per run, replayed and
// streamed proofs byte-equal to the prover's) and the span writer.
func TestSmoke(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// The runner writes under bench/out of the repository root.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	tmp, hadTmp := os.LookupEnv("TMPDIR")
	defer func() {
		if hadTmp {
			os.Setenv("TMPDIR", tmp)
		} else {
			os.Unsetenv("TMPDIR")
		}
	}()
	if err := runSmoke(42); err != nil {
		t.Fatal(err)
	}
}
