package main

import "testing"

// TestSetupRejectsSRSVars checks that an out-of-range -srs-vars is a clean
// error on both the seeded and the system-randomness path.
func TestSetupRejectsSRSVars(t *testing.T) {
	for _, seed := range []int64{0, 7} {
		for _, vars := range []int{-1, 0, 27, 40} {
			if _, err := setup(options{srsVars: vars, seed: seed}); err == nil {
				t.Errorf("seed=%d: accepted -srs-vars %d", seed, vars)
			}
		}
	}
}
