//go:build !purego

package cputest

import (
	"testing"

	"zkphire/internal/cpu"
)

// EachLaneBody runs f once per Lanes body this host has: the IFMA body if
// the CPU has it, then the portable body, forced by clearing cpu.IFMA for
// the duration. No test that calls it may run in parallel with another
// test of its package.
func EachLaneBody(t *testing.T, f func(t *testing.T)) {
	ifma := cpu.IFMA
	defer func() { cpu.IFMA = ifma }()
	if ifma {
		t.Run("ifma", f)
	}
	cpu.IFMA = false
	t.Run("portable", f)
}
