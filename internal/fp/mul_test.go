package fp

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
)

// Differential tests for the multiplication kernel: the assembly mulADX,
// the portable mulGeneric/squareGeneric, and a math/big oracle must agree on
// every input, under every aliasing of the three operands, and every output
// must be canonical (< p).

// rInvBig is R⁻¹ mod p (lazily: pBig is set by an init function).
var rInvBig = sync.OnceValue(func() *big.Int {
	return new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 64*Limbs), pBig)
})

// montMulBig is the oracle: x·y·R⁻¹ mod p on the raw limbs.
func montMulBig(x, y *Element) Element {
	var xb, yb big.Int
	limbsToBig(x, &xb)
	limbsToBig(y, &yb)
	xb.Mul(&xb, &yb).Mul(&xb, rInvBig()).Mod(&xb, pBig)
	var z Element
	bigToLimbs(&xb, (*[Limbs]uint64)(&z))
	return z
}

// reduceRaw maps arbitrary limbs to a canonical element: keep 381 bits
// (< 2p), then subtract p once if needed.
func reduceRaw(z *Element) {
	z[5] &= 1<<61 - 1
	if !smallerThanP(z) {
		var b uint64
		for i := range z {
			z[i], b = bits.Sub64(z[i], p[i], b)
		}
	}
}

func randRaw(rng *rand.Rand) Element {
	var z Element
	for i := range z {
		z[i] = rng.Uint64()
	}
	reduceRaw(&z)
	return z
}

// edgeElements are the raw limb patterns most likely to trip a carry chain
// or the final subtraction.
func edgeElements() []Element {
	const ones = ^uint64(0)
	pm1 := p
	pm1[0]--
	return []Element{
		{},                                      // 0
		{1},                                     // smallest nonzero limb pattern
		one,                                     // R mod p
		rSquare,                                 // R² mod p
		pm1,                                     // p − 1
		{ones, ones, ones, ones, ones, pc5 - 1}, // largest all-ones run below p
		{ones, ones, ones, ones, ones, 0},
		{ones},
		{0, 0, 0, 0, 0, pc5},
		{0, ones, 0, ones, 0, pc5 - 1},
	}
}

// checkMulKernels runs one (x, y) pair through asm and generic under every
// aliasing and returns the common product.
func checkMulKernels(t testing.TB, x, y *Element) Element {
	t.Helper()
	var want Element
	want.mulGeneric(x, y)
	if !smallerThanP(&want) {
		t.Fatalf("mulGeneric(%x, %x) = %x is not canonical", *x, *y, want)
	}
	if !hasADX {
		return want
	}
	run := func(name string, got Element) {
		t.Helper()
		if got != want {
			t.Fatalf("mulADX %s: x=%x y=%x got %x, mulGeneric %x", name, *x, *y, got, want)
		}
	}
	var z Element
	mulADX(&z, x, y)
	run("z distinct", z)
	z = *x
	mulADX(&z, &z, y)
	run("z==x", z)
	z = *y
	mulADX(&z, x, &z)
	run("z==y", z)
	return want
}

// checkSquareKernels does the same for x == y, including z == x == y.
func checkSquareKernels(t testing.TB, x *Element) {
	t.Helper()
	want := checkMulKernels(t, x, x)
	var sq Element
	sq.squareGeneric(x)
	if sq != want {
		t.Fatalf("squareGeneric(%x) = %x, mulGeneric %x", *x, sq, want)
	}
	sq = *x
	sq.squareGeneric(&sq)
	if sq != want {
		t.Fatalf("squareGeneric in place (%x) = %x, want %x", *x, sq, want)
	}
	if !hasADX {
		return
	}
	var z Element
	mulADX(&z, x, x)
	if z != want {
		t.Fatalf("mulADX x==y: x=%x got %x, want %x", *x, z, want)
	}
	z = *x
	mulADX(&z, &z, &z)
	if z != want {
		t.Fatalf("mulADX z==x==y: x=%x got %x, want %x", *x, z, want)
	}
}

func TestMulKernelEdges(t *testing.T) {
	edges := edgeElements()
	for i := range edges {
		if !smallerThanP(&edges[i]) {
			t.Fatalf("edge %d (%x) is not below p", i, edges[i])
		}
		checkSquareKernels(t, &edges[i])
		for j := range edges {
			got := checkMulKernels(t, &edges[i], &edges[j])
			if want := montMulBig(&edges[i], &edges[j]); got != want {
				t.Fatalf("edges %d·%d = %x, math/big %x", i, j, got, want)
			}
		}
	}
	if !hasADX {
		t.Log("no BMI2+ADX (or -tags purego): only mulGeneric/squareGeneric checked against math/big")
	}
}

// TestMulAsmVsGeneric is the bulk differential: 10⁶ seeded random pairs
// (10⁵ with -short), each under all aliasings, with math/big as a third
// opinion on every 16th pair.
func TestMulAsmVsGeneric(t *testing.T) {
	if !hasADX {
		t.Skip("no BMI2+ADX on this CPU (or built with -tags purego): nothing to compare mulGeneric against")
	}
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < n; i++ {
		x, y := randRaw(rng), randRaw(rng)
		got := checkMulKernels(t, &x, &y)
		checkSquareKernels(t, &x)
		if i%16 == 0 {
			if want := montMulBig(&x, &y); got != want {
				t.Fatalf("pair %d: x=%x y=%x got %x, math/big %x", i, x, y, got, want)
			}
		}
	}
}

// TestDispatch pins the public methods to whichever kernel hasADX selects,
// and logs the kernels this CPU selected (CI runs it with -v).
func TestDispatch(t *testing.T) {
	switch {
	case hasADX && hasIFMA:
		t.Log("kernels: ADX + IFMA (mulADX, Lanes)")
	case hasADX:
		t.Log("kernels: ADX (mulADX; no Lanes: " + noIFMA + ")")
	case hasIFMA:
		t.Log("kernels: generic + IFMA (mulGeneric, Lanes)")
	default:
		t.Log("kernels: generic (mulGeneric; no Lanes)")
	}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 1000; i++ {
		x, y := randRaw(rng), randRaw(rng)
		var viaMul, viaSquare, wantMul, wantSquare Element
		viaMul.Mul(&x, &y)
		viaSquare.Square(&x)
		wantMul.mulGeneric(&x, &y)
		wantSquare.squareGeneric(&x)
		if viaMul != wantMul || viaSquare != wantSquare {
			t.Fatalf("hasADX=%v: Mul/Square disagree with the generic path on x=%x y=%x", hasADX, x, y)
		}
	}
}

func FuzzMulAsmVsGeneric(f *testing.F) {
	seed := func(x, y Element) {
		var buf [2 * Bytes]byte
		for i := 0; i < Limbs; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], x[i])
			binary.LittleEndian.PutUint64(buf[Bytes+8*i:], y[i])
		}
		f.Add(buf[:])
	}
	edges := edgeElements()
	for i := range edges {
		seed(edges[i], edges[len(edges)-1-i])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2*Bytes {
			return
		}
		var x, y Element
		for i := 0; i < Limbs; i++ {
			x[i] = binary.LittleEndian.Uint64(data[8*i:])
			y[i] = binary.LittleEndian.Uint64(data[Bytes+8*i:])
		}
		reduceRaw(&x)
		reduceRaw(&y)
		got := checkMulKernels(t, &x, &y)
		checkSquareKernels(t, &x)
		if want := montMulBig(&x, &y); got != want {
			t.Fatalf("x=%x y=%x got %x, math/big %x", x, y, got, want)
		}
	})
}

// BenchmarkMul and BenchmarkSquare report both kernels by name in one run:
//
//	go test -run '^$' -bench 'Mul|Square' ./internal/fp
//
// "asm" is the public method on a CPU where it dispatches to mulADX (what
// internal/curve pays, dispatch included); "generic" is the portable body.
func BenchmarkMul(b *testing.B) {
	var x, y Element
	x.SetUint64(0xdeadbeef)
	y.SetHex(modulusHex[:90])
	b.Run("asm", func(b *testing.B) {
		if !hasADX {
			b.Skip("no BMI2+ADX on this CPU (or built with -tags purego)")
		}
		x := x
		for i := 0; i < b.N; i++ {
			x.Mul(&x, &y)
		}
	})
	b.Run("generic", func(b *testing.B) {
		x := x
		for i := 0; i < b.N; i++ {
			x.mulGeneric(&x, &y)
		}
	})
}

func BenchmarkSquare(b *testing.B) {
	var x Element
	x.SetHex(modulusHex[:90])
	b.Run("asm", func(b *testing.B) {
		if !hasADX {
			b.Skip("no BMI2+ADX on this CPU (or built with -tags purego)")
		}
		x := x
		for i := 0; i < b.N; i++ {
			x.Square(&x)
		}
	})
	b.Run("generic", func(b *testing.B) {
		x := x
		for i := 0; i < b.N; i++ {
			x.squareGeneric(&x)
		}
	})
}
