package cpu

import "testing"

// TestFeatures logs the field kernels this CPU selected (CI runs it with
// -v) and checks the probe: against the kernel's CPU flags on linux/amd64,
// and constant false elsewhere and under -tags purego.
func TestFeatures(t *testing.T) {
	switch {
	case ADX && IFMA:
		t.Log("kernels in fp and ff: ADX + IFMA (mulADX, the IFMA Lanes body)")
	case ADX:
		t.Log("kernels in fp and ff: ADX (mulADX, the portable Lanes body)")
	case IFMA:
		t.Log("kernels in fp and ff: generic + IFMA (mulGeneric, the IFMA Lanes body)")
	default:
		t.Log("kernels in fp and ff: generic (mulGeneric, the portable Lanes body)")
	}
	checkFeatures(t)
}
