package ff

import (
	"encoding/binary"
	"math/big"
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"zkphire/internal/cpu"
)

// Differential tests for the multiplication kernels: the assembly mulADX,
// the portable mulGeneric, and a math/big oracle must agree on every
// input, under every aliasing of the operands, and every output must be
// canonical (< q).

// rInvBig is R⁻¹ mod q (lazily: qBig is set by an init function).
var rInvBig = sync.OnceValue(func() *big.Int {
	return new(big.Int).ModInverse(new(big.Int).Lsh(big.NewInt(1), 64*Limbs), qBig)
})

// montMulBig is the oracle: x·y·R⁻¹ mod q on the raw limbs.
func montMulBig(x, y *Element) Element {
	var xb, yb big.Int
	limbsToBig(x, &xb)
	limbsToBig(y, &yb)
	xb.Mul(&xb, &yb).Mul(&xb, rInvBig()).Mod(&xb, qBig)
	var z Element
	bigToLimbs(&xb, (*[Limbs]uint64)(&z))
	return z
}

// reduceRaw maps arbitrary limbs to a canonical element: keep 255 bits
// (< 2q), then subtract q once if needed.
func reduceRaw(z *Element) {
	z[3] &= 1<<63 - 1
	if !smallerThanModulus(z) {
		var b uint64
		for i := range z {
			z[i], b = bits.Sub64(z[i], q[i], b)
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

// edgeLimbs are the raw limb patterns most likely to trip a carry chain
// or the final subtraction.
func edgeLimbs() []Element {
	const ones = ^uint64(0)
	qm1 := q
	qm1[0]--
	return []Element{
		{},                          // 0
		{1},                         // smallest nonzero limb pattern
		one,                         // R mod q
		rSquare,                     // R² mod q
		qm1,                         // q − 1
		{ones, ones, ones, qc3 - 1}, // largest all-ones run below q
		{ones, ones, ones, 0},
		{ones},
		{0, 0, 0, qc3},
		{0, ones, 0, qc3 - 1},
	}
}

// checkMulKernels runs one (x, y) pair through asm and generic under every
// aliasing and returns the common product.
func checkMulKernels(t testing.TB, x, y *Element) Element {
	t.Helper()
	var want Element
	want.mulGeneric(x, y)
	if !smallerThanModulus(&want) {
		t.Fatalf("mulGeneric(%x, %x) = %x is not canonical", *x, *y, want)
	}
	if !cpu.ADX {
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
	sq := *x
	sq.mulGeneric(&sq, &sq)
	if sq != want {
		t.Fatalf("mulGeneric z==x==y: x=%x got %x, want %x", *x, sq, want)
	}
	if !cpu.ADX {
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
	edges := edgeLimbs()
	for i := range edges {
		if !smallerThanModulus(&edges[i]) {
			t.Fatalf("edge %d (%x) is not below q", i, edges[i])
		}
		checkSquareKernels(t, &edges[i])
		for j := range edges {
			got := checkMulKernels(t, &edges[i], &edges[j])
			if want := montMulBig(&edges[i], &edges[j]); got != want {
				t.Fatalf("edges %d·%d = %x, math/big %x", i, j, got, want)
			}
		}
	}
	if !cpu.ADX {
		t.Log("no BMI2+ADX (or -tags purego): only mulGeneric checked against math/big")
	}
}

// TestMulAsmVsGeneric is the bulk differential: 10⁶ seeded random pairs
// (10⁵ with -short), each under all aliasings, with math/big as a third
// opinion on every 16th pair.
func TestMulAsmVsGeneric(t *testing.T) {
	if !cpu.ADX {
		t.Skip("no BMI2+ADX on this CPU (or built with -tags purego): nothing to compare mulGeneric against")
	}
	n := 1_000_000
	if testing.Short() {
		n = 100_000
	}
	rng := rand.New(rand.NewSource(23))
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

// TestDispatch pins the public methods to whichever kernel cpu.ADX selects;
// internal/cpu's TestFeatures logs which one that is.
func TestDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 1000; i++ {
		x, y := randRaw(rng), randRaw(rng)
		var viaMul, viaSquare, wantMul, wantSquare Element
		viaMul.Mul(&x, &y)
		viaSquare.Square(&x)
		wantMul.mulGeneric(&x, &y)
		wantSquare.mulGeneric(&x, &x)
		if viaMul != wantMul || viaSquare != wantSquare {
			t.Fatalf("cpu.ADX=%v: Mul/Square disagree with the generic path on x=%x y=%x", cpu.ADX, x, y)
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
	edges := edgeLimbs()
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
//	go test -run '^$' -bench 'Mul|Square' ./internal/ff
//
// "asm" is the public method on a CPU where it dispatches to mulADX (what
// the callers pay, dispatch included); "generic" is the portable body.
func BenchmarkMul(b *testing.B) {
	var x, y Element
	x.SetUint64(0xdeadbeef)
	y.SetUint64(0xfeedface)
	y.Inverse(&y)
	b.Run("asm", func(b *testing.B) {
		if !cpu.ADX {
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
	x.SetUint64(0xfeedface)
	x.Inverse(&x)
	b.Run("asm", func(b *testing.B) {
		if !cpu.ADX {
			b.Skip("no BMI2+ADX on this CPU (or built with -tags purego)")
		}
		x := x
		for i := 0; i < b.N; i++ {
			mulADX(&x, &x, &x)
		}
	})
	b.Run("generic", func(b *testing.B) {
		x := x
		for i := 0; i < b.N; i++ {
			x.mulGeneric(&x, &x)
		}
	})
}
