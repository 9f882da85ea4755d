package fp

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"

	"zkphire/internal/cpu"
)

// Differential tests for the Lanes kernel: every lane of Mul, Sub and Add
// must equal Element's Mul, Sub and Add on the same inputs under every
// aliasing of the result, and Pack and Unpack must round-trip through the
// 52-bit limb layout.

const noIFMA = "no AVX512IFMA (with AVX512F and OS-enabled ZMM state) on this CPU, or built with -tags purego or off amd64"

var laneOps = []struct {
	name   string
	vec    func(z, x, y *Lanes)
	scalar func(z, x, y *Element) *Element
}{
	{"Mul", (*Lanes).Mul, (*Element).Mul},
	{"Sub", (*Lanes).Sub, (*Element).Sub},
	{"Add", (*Lanes).Add, (*Element).Add},
}

// checkLanes runs eight (x, y) pairs through the kernel and compares every
// lane with the scalar methods.
func checkLanes(t testing.TB, x, y *[LaneCount]Element) {
	t.Helper()
	var X, Y Lanes
	X.Pack(x)
	Y.Pack(y)
	for l := range x {
		want := limbs52(&x[l])
		for j := range want {
			if X[j][l] != want[j] {
				t.Fatalf("Pack lane %d limb %d: got %x, want %x (x=%x)", l, j, X[j][l], want[j], x[l])
			}
		}
	}
	var back [LaneCount]Element
	X.Unpack(&back)
	if back != *x {
		t.Fatalf("Unpack(Pack(x)) = %x, want %x", back, *x)
	}
	for _, op := range laneOps {
		var want [LaneCount]Element
		for l := range want {
			op.scalar(&want[l], &x[l], &y[l])
		}
		for _, alias := range []string{"z distinct", "z==x", "z==y"} {
			var Z Lanes
			switch alias {
			case "z distinct":
				op.vec(&Z, &X, &Y)
			case "z==x":
				Z = X
				op.vec(&Z, &Z, &Y)
			case "z==y":
				Z = Y
				op.vec(&Z, &X, &Z)
			}
			var got [LaneCount]Element
			Z.Unpack(&got)
			for l := range got {
				if got[l] != want[l] {
					t.Fatalf("Lanes.%s %s lane %d: x=%x y=%x got %x, Element.%s %x", op.name, alias, l, x[l], y[l], got[l], op.name, want[l])
				}
			}
		}
	}
}

func TestLanesConstants(t *testing.T) {
	var pl big.Int
	for j := laneLimbs - 1; j >= 0; j-- {
		pl.Lsh(&pl, 52).Or(&pl, new(big.Int).SetUint64(laneConst[j]))
	}
	if pl.Cmp(pBig) != 0 {
		t.Fatalf("laneConst limbs give %x, want p = %x", &pl, pBig)
	}
	if got := laneConst[laneLimbs] * p[0] & (1<<52 - 1); got != 1<<52-1 {
		t.Fatalf("−p⁻¹·p mod 2^52 = %x, want 2^52 − 1", got)
	}
}

// TestLanesEdges runs every ordered pair of edge elements, eight pairs per
// call.
func TestLanesEdges(t *testing.T) {
	if !cpu.IFMA {
		t.Skip(noIFMA)
	}
	edges := edgeElements()
	var x, y [LaneCount]Element
	l := 0
	for i := range edges {
		for j := range edges {
			x[l], y[l] = edges[i], edges[j]
			if l++; l == LaneCount {
				checkLanes(t, &x, &y)
				l = 0
			}
		}
	}
	if l > 0 {
		checkLanes(t, &x, &y)
	}
}

// TestLanesRandom is the bulk differential: 10⁵ seeded random lane pairs
// (10⁴ with -short).
func TestLanesRandom(t *testing.T) {
	if !cpu.IFMA {
		t.Skip(noIFMA)
	}
	n := 100_000 / LaneCount
	if testing.Short() {
		n /= 10
	}
	rng := rand.New(rand.NewSource(37))
	var x, y [LaneCount]Element
	for i := 0; i < n; i++ {
		for l := range x {
			x[l], y[l] = randRaw(rng), randRaw(rng)
		}
		checkLanes(t, &x, &y)
	}
}

// FuzzLanes decodes up to sixteen elements (eight x, eight y) from the
// input, filling what it does not cover with edge elements. The scalar
// half checks Element.Mul and Sub against math/big; the vector half checks
// every lane of Lanes against them.
func FuzzLanes(f *testing.F) {
	edges := edgeElements()
	for i := range edges {
		var buf [2 * Bytes]byte
		for k := 0; k < Limbs; k++ {
			binary.LittleEndian.PutUint64(buf[8*k:], edges[i][k])
			binary.LittleEndian.PutUint64(buf[Bytes+8*k:], edges[len(edges)-1-i][k])
		}
		f.Add(buf[:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var x, y [LaneCount]Element
		for i := 0; i < 2*LaneCount; i++ {
			e := &x[i%LaneCount]
			if i >= LaneCount {
				e = &y[i%LaneCount]
			}
			if len(data) < (i+1)*Bytes {
				*e = edges[i%len(edges)]
				continue
			}
			for k := 0; k < Limbs; k++ {
				e[k] = binary.LittleEndian.Uint64(data[i*Bytes+8*k:])
			}
			reduceRaw(e)
		}
		for l := range x {
			var mul, sub Element
			mul.Mul(&x[l], &y[l])
			if want := montMulBig(&x[l], &y[l]); mul != want {
				t.Fatalf("Mul(%x, %x) = %x, math/big %x", x[l], y[l], mul, want)
			}
			sub.Sub(&x[l], &y[l])
			d := new(big.Int).Sub(toBig(&x[l]), toBig(&y[l]))
			if toBig(&sub).Cmp(d.Mod(d, pBig)) != 0 {
				t.Fatalf("Sub(%x, %x) = %x, math/big %v", x[l], y[l], sub, d)
			}
		}
		if !cpu.IFMA {
			t.Skip(noIFMA)
		}
		checkLanes(t, &x, &y)
	})
}

// BenchmarkLanes reports the kernel's cost per product (and per sub) beside
// BenchmarkMul's fp.Mul:
//
//	go test -run '^$' -bench 'Lanes|Mul' ./internal/fp
//
// Both chain each result into the next call, as BenchmarkMul does.
func BenchmarkLanes(b *testing.B) {
	if !cpu.IFMA {
		b.Skip(noIFMA)
	}
	rng := rand.New(rand.NewSource(38))
	var x [LaneCount]Element
	for l := range x {
		x[l] = randRaw(rng)
	}
	var X, Y Lanes
	X.Pack(&x)
	Y = X
	for _, op := range laneOps {
		b.Run(op.name, func(b *testing.B) {
			Z := X
			for i := 0; i < b.N; i++ {
				op.vec(&Z, &Z, &Y)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*LaneCount), "ns/elem")
		})
	}
	b.Run("Pack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			X.Pack(&x)
		}
	})
	b.Run("Unpack", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			X.Unpack(&x)
		}
	})
}
