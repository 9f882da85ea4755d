//go:build !purego

package fp

import (
	"testing"

	"zkphire/internal/cpu"
)

// eachLaneBody runs f once per Lanes body this host has: the IFMA body if
// the CPU has it, then the portable body, forced by clearing cpu.IFMA for
// the duration (no test that calls it runs in parallel).
func eachLaneBody(t *testing.T, f func(t *testing.T)) {
	ifma := cpu.IFMA
	defer func() { cpu.IFMA = ifma }()
	if ifma {
		t.Run("ifma", f)
	}
	cpu.IFMA = false
	t.Run("portable", f)
}
