package ff

import "testing"

// TestLazyReductionWindows pins the exported overflow-window constants
// to the accumulator geometry they are derived from (DESIGN.md §5):
// SumVec adds <2^255 values into a 5-limb (320-bit) accumulator, and
// LazyAcc adds <2^510 products into a 9-limb (576-bit) one. The
// compile-time guards beside the constants (`const _ = uint(SumWindowLog2
// - 63)`) stake every caller on these values, so if an accumulator is ever
// narrowed this must fail before a guard silently over-promises.
func TestLazyReductionWindows(t *testing.T) {
	const (
		sumAccBits = 5 * 64 // SumVec's five-limb accumulator
		addendBits = 255    // each addend is < q < 2^255
	)
	if SumWindowLog2 != sumAccBits-addendBits {
		t.Fatalf("SumWindowLog2 = %d, want %d", SumWindowLog2, sumAccBits-addendBits)
	}
	const (
		prodAccBits = len(LazyAcc{}) * 64 // the nine-limb accumulator
		prodBits    = 510                 // each product is < q² < 2^510
	)
	if ProductWindowLog2 != prodAccBits-prodBits {
		t.Fatalf("ProductWindowLog2 = %d, want %d", ProductWindowLog2, prodAccBits-prodBits)
	}
}
