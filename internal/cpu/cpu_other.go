//go:build !amd64 || purego

package cpu

// Without the amd64 kernels (other architectures, or -tags purego) no
// feature is ever selected.
const (
	ADX  = false
	IFMA = false
)
