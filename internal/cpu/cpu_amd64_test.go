//go:build !purego

package cpu

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// checkFeatures compares the probe with the flags Linux reports for the
// first CPU in /proc/cpuinfo, which it sets from the same CPUID bits and
// clears for AVX-512 when the OS does not save ZMM state.
func checkFeatures(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skipf("no /proc/cpuinfo on %s to compare the probe with", runtime.GOOS)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("reading /proc/cpuinfo: %v", err)
	}
	flags := map[string]bool{}
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	if len(flags) == 0 {
		t.Fatal("no flags line in /proc/cpuinfo")
	}
	if want := flags["bmi2"] && flags["adx"]; ADX != want {
		t.Errorf("ADX = %v, but /proc/cpuinfo has bmi2 && adx = %v", ADX, want)
	}
	if want := flags["avx512f"] && flags["avx512ifma"]; IFMA != want {
		t.Errorf("IFMA = %v, but /proc/cpuinfo has avx512f && avx512ifma = %v", IFMA, want)
	}
}

// TestFeatureBits decodes register values with every bit set but one and
// checks that exactly the bits each feature needs turn it off, so a wrong
// bit number fails here whatever this CPU has.
func TestFeatureBits(t *testing.T) {
	const ones = ^uint32(0)
	regs := []string{"leaf 1 ECX", "leaf 7 EBX", "XCR0"}
	needADX := map[string][]uint{"leaf 7 EBX": {8, 19}}
	needIFMA := map[string][]uint{"leaf 1 ECX": {27}, "leaf 7 EBX": {16, 21}, "XCR0": {1, 2, 5, 6, 7}}
	for r, name := range regs {
		for bit := uint(0); bit < 32; bit++ {
			v := [3]uint32{ones, ones, ones}
			v[r] &^= 1 << bit
			adx, ifma := features(v[0], v[1], v[2])
			wantADX := !slices.Contains(needADX[name], bit)
			wantIFMA := !slices.Contains(needIFMA[name], bit)
			if adx != wantADX || ifma != wantIFMA {
				t.Errorf("%s bit %d clear: ADX = %v, IFMA = %v; want %v, %v", name, bit, adx, ifma, wantADX, wantIFMA)
			}
		}
	}
}
