//go:build !amd64 || purego

package cpu

import "testing"

func checkFeatures(t *testing.T) {
	if ADX || IFMA {
		t.Fatalf("ADX = %v, IFMA = %v without the amd64 kernels; want both false", ADX, IFMA)
	}
}
