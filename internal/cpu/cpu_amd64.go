//go:build !purego

package cpu

// ADX reports BMI2 and ADX (MULX, ADCX/ADOX). IFMA reports AVX512F and
// AVX512IFMA with ZMM state enabled by the OS.
var ADX, IFMA = probe()

// probe reads the registers features decodes. XGETBV faults unless the OS
// has set OSXSAVE, so XCR0 reads as zero then.
func probe() (adx, ifma bool) {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	var xcr0 uint32
	if bitsSet(ecx1, 1<<27) {
		xcr0, _ = xgetbv()
	}
	return features(ecx1, ebx7, xcr0)
}

// features decodes CPUID leaf 1 ECX, leaf 7 (sub-leaf 0) EBX and XCR0.
// ADX needs EBX bits 8 (BMI2) and 19 (ADX), plain integer instructions that
// need no OS support. IFMA needs EBX bits 16 (AVX512F) and 21
// (AVX512IFMA), and the OS must save AVX-512 state: ECX bit 27 (OSXSAVE),
// then XCR0 bits 1, 2, 5, 6, 7 (SSE, AVX, opmask, ZMM_Hi256, Hi16_ZMM).
func features(ecx1, ebx7, xcr0 uint32) (adx, ifma bool) {
	adx = bitsSet(ebx7, 1<<8|1<<19)
	ifma = bitsSet(ecx1, 1<<27) && bitsSet(xcr0, 0xe6) && bitsSet(ebx7, 1<<16|1<<21)
	return adx, ifma
}

func bitsSet(x, mask uint32) bool { return x&mask == mask }

// cpuid and xgetbv are the instructions (cpu_amd64.s); xgetbv reads XCR0.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
