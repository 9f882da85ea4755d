package fp

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"zkphire/internal/cpu"
	"zkphire/internal/cpu/cputest"
)

// Differential tests for Lanes, on every body this host has: every lane of
// MulLanes, SubLanes and AddLanes must equal Element's Mul, Sub and Add on
// the same inputs, for rows of several lengths and under every aliasing of
// the result; Set, PackLanes, UnpackLanes and Get must round-trip
// (through the 52-bit limb layout on the IFMA body); Blend and ZeroMask
// must act lane by lane.

var laneOps = []struct {
	name   string
	row    func(z, x, y []Lanes)
	scalar func(z, x, y *Element) *Element
}{
	{"Mul", MulLanes, (*Element).Mul},
	{"Sub", SubLanes, (*Element).Sub},
	{"Add", AddLanes, (*Element).Add},
}

// setRow sets lane l of z[k] to x[8k+l] and packs z.
func setRow(z []Lanes, x []Element) {
	for i := range x {
		z[i/LaneCount].Set(i%LaneCount, &x[i])
	}
	PackLanes(z)
}

// getRow returns the lanes of the packed row z in order, leaving z as it
// was.
func getRow(z []Lanes) []Element {
	u := append([]Lanes(nil), z...)
	UnpackLanes(u)
	x := make([]Element, LaneCount*len(u))
	for i := range x {
		u[i/LaneCount].Get(i%LaneCount, &x[i])
	}
	return x
}

// checkLanes runs the (x, y) pairs, len(x) = len(y) a multiple of eight,
// through each row kernel as one row and compares every lane with the
// scalar methods.
func checkLanes(t testing.TB, x, y []Element) {
	t.Helper()
	n := len(x) / LaneCount
	X, Y := make([]Lanes, n), make([]Lanes, n)
	setRow(X, x)
	setRow(Y, y)
	for i := range x {
		k, l := i/LaneCount, i%LaneCount
		if cpu.IFMA {
			want := limbs52(&x[i])
			for j := range want {
				if X[k][j][l] != want[j] {
					t.Fatalf("PackLanes lane %d limb %d: got %x, want %x (x=%x)", l, j, X[k][j][l], want[j], x[i])
				}
			}
		}
	}
	for i, got := range getRow(X) {
		if got != x[i] {
			t.Fatalf("Get(UnpackLanes(PackLanes(Set(x)))) entry %d = %x, want %x", i, got, x[i])
		}
	}
	for _, op := range laneOps {
		want := make([]Element, len(x))
		for i := range want {
			op.scalar(&want[i], &x[i], &y[i])
		}
		for _, alias := range []string{"z distinct", "z==x", "z==y"} {
			Z := make([]Lanes, n)
			switch alias {
			case "z distinct":
				op.row(Z, X, Y)
			case "z==x":
				copy(Z, X)
				op.row(Z, Z, Y)
			case "z==y":
				copy(Z, Y)
				op.row(Z, X, Z)
			}
			for i, got := range getRow(Z) {
				if got != want[i] {
					t.Fatalf("%sLanes %s, row of %d, entry %d: x=%x y=%x got %x, Element.%s %x", op.name, alias, n, i, x[i], y[i], got, op.name, want[i])
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

// TestLanesEdges runs every ordered pair of edge elements as one row.
func TestLanesEdges(t *testing.T) {
	edges := edgeElements()
	var x, y []Element
	for i := range edges {
		for j := range edges {
			x, y = append(x, edges[i]), append(y, edges[j])
		}
	}
	for len(x)%LaneCount != 0 {
		x, y = append(x, edges[0]), append(y, edges[len(x)%len(edges)])
	}
	cputest.EachLaneBody(t, func(t *testing.T) { checkLanes(t, x, y) })
}

// TestLanesRandom is the bulk differential: 10⁵ seeded random lane pairs
// (10⁴ with -short), in rows of 1, 2, 3 and 7 values.
func TestLanesRandom(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n /= 10
	}
	cputest.EachLaneBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(37))
		for done, r := 0, 0; done < n; r++ {
			m := LaneCount * []int{1, 2, 3, 7}[r%4]
			x, y := make([]Element, m), make([]Element, m)
			for i := range x {
				x[i], y[i] = randRaw(rng), randRaw(rng)
			}
			checkLanes(t, x, y)
			done += m
		}
	})
}

// TestLanesBlendZeroMask checks that Blend copies exactly the masked lanes,
// that ZeroMask finds exactly the zero lanes and that Broadcast fills every
// lane.
func TestLanesBlendZeroMask(t *testing.T) {
	cputest.EachLaneBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(39))
		var a, b [LaneCount]Element
		for l := range a {
			a[l], b[l] = randRaw(rng), randRaw(rng)
		}
		for _, mask := range []uint8{0, 1, 0x80, 0x5a, 0xfe, 0xff} {
			A, B := make([]Lanes, 1), make([]Lanes, 1)
			setRow(A, a[:])
			setRow(B, b[:])
			A[0].Blend(mask, &B[0])
			for l, got := range getRow(A) {
				want := a[l]
				if mask&(1<<l) != 0 {
					want = b[l]
				}
				if got != want {
					t.Fatalf("Blend(%#x) lane %d = %x, want %x", mask, l, got, want)
				}
			}
			var z [LaneCount]Element
			for l := range z {
				if mask&(1<<l) == 0 {
					z[l] = a[l]
				}
			}
			Z := make([]Lanes, 1)
			setRow(Z, z[:])
			if got := Z[0].ZeroMask(); got != mask {
				t.Fatalf("ZeroMask = %#x, want %#x", got, mask)
			}
			var c Lanes
			c.Broadcast(&a[0])
			for l, got := range getRow([]Lanes{c}) {
				if got != a[0] {
					t.Fatalf("Broadcast lane %d = %x, want %x", l, got, a[0])
				}
			}
		}
	})
}

// FuzzLanes decodes up to sixteen elements (eight x, eight y) from the
// input, filling what it does not cover with edge elements. The scalar
// half checks Element.Mul and Sub against math/big; the vector half checks
// every lane of the row kernels against them on every body.
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
		x, y := make([]Element, LaneCount), make([]Element, LaneCount)
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
		cputest.EachLaneBody(t, func(t *testing.T) { checkLanes(t, x, y) })
	})
}

// BenchmarkLanes reports each row kernel's cost per lane beside
// BenchmarkMul's fp.Mul, on a row of one value (the chained use in the
// MSM's window reduction) and of 64 (its chord flush), PackLanes and
// UnpackLanes per lane, and Set and Get, on the body this host selects:
//
//	go test -run '^$' -bench 'Lanes|Mul' ./internal/fp
func BenchmarkLanes(b *testing.B) {
	rng := rand.New(rand.NewSource(38))
	x := make([]Element, 64*LaneCount)
	for i := range x {
		x[i] = randRaw(rng)
	}
	for _, op := range laneOps {
		for _, n := range []int{1, 64} {
			b.Run(fmt.Sprintf("%s/row=%d", op.name, n), func(b *testing.B) {
				Z, Y := make([]Lanes, n), make([]Lanes, n)
				setRow(Z, x[:n*LaneCount])
				copy(Y, Z)
				for i := 0; i < b.N; i++ {
					op.row(Z, Z, Y)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n*LaneCount), "ns/elem")
			})
		}
	}
	row := make([]Lanes, 64)
	setRow(row, x)
	b.Run("PackLanes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PackLanes(row)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/elem")
	})
	b.Run("UnpackLanes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			UnpackLanes(row)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(x)), "ns/elem")
	})
	var z Lanes
	b.Run("Set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			z.Set(i&(LaneCount-1), &x[i&63])
		}
	})
	b.Run("Get", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			z.Get(i&(LaneCount-1), &x[i&63])
		}
	})
}
