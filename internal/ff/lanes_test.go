package ff

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"testing"

	"zkphire/internal/cpu"
	"zkphire/internal/cpu/cputest"
)

// Differential tests for both Lanes bodies: every lane of MulLanes,
// SubLanes and AddLanes must equal Element's Mul, Sub and Add on the same
// inputs under every aliasing of the result, on one-value rows and on
// longer ones, and PackLanes and UnpackLanes must round-trip (through the
// 52-bit limb layout on the IFMA body).

var laneOps = []struct {
	name   string
	vec    func(z, x, y []Lanes)
	scalar func(z, x, y *Element) *Element
}{
	{"Mul", MulLanes, (*Element).Mul},
	{"Sub", SubLanes, (*Element).Sub},
	{"Add", AddLanes, (*Element).Add},
}

// laneEdges are the edge elements plus values whose 52-bit limbs sit at
// their boundaries: each limb all ones, or only its top or bottom bit set.
func laneEdges() []Element {
	edges := append(edgeLimbs(), edgeElements()...)
	for j := 0; j < laneLimbs; j++ {
		for _, limb := range []uint64{1, 1 << 51, 1<<52 - 1} {
			var b big.Int
			b.Lsh(new(big.Int).SetUint64(limb), uint(52*j))
			if b.Cmp(qBig) >= 0 {
				b.Sub(qBig, big.NewInt(1))
			}
			var e Element
			bigToLimbs(&b, (*[Limbs]uint64)(&e))
			edges = append(edges, e)
		}
	}
	return edges
}

// checkLanes runs eight (x, y) pairs through the selected body as
// one-value rows and compares every lane with the scalar methods.
func checkLanes(t testing.TB, x, y *[LaneCount]Element) {
	t.Helper()
	var X, Y [1]Lanes
	PackLanes(X[:], x[:])
	PackLanes(Y[:], y[:])
	for l := range x {
		if !cpu.IFMA {
			break // the radix-2^52 layout is the IFMA body's
		}
		want := limbs52(&x[l])
		for j := range want {
			if X[0][j][l] != want[j] {
				t.Fatalf("PackLanes lane %d limb %d: got %x, want %x (x=%x)", l, j, X[0][j][l], want[j], x[l])
			}
		}
	}
	var back [LaneCount]Element
	UnpackLanes(back[:], X[:])
	if back != *x {
		t.Fatalf("UnpackLanes(PackLanes(x)) = %x, want %x", back, *x)
	}
	for _, op := range laneOps {
		var want [LaneCount]Element
		for l := range want {
			op.scalar(&want[l], &x[l], &y[l])
		}
		for _, alias := range []string{"z distinct", "z==x", "z==y"} {
			var Z [1]Lanes
			switch alias {
			case "z distinct":
				op.vec(Z[:], X[:], Y[:])
			case "z==x":
				Z = X
				op.vec(Z[:], Z[:], Y[:])
			case "z==y":
				Z = Y
				op.vec(Z[:], X[:], Z[:])
			}
			var got [LaneCount]Element
			UnpackLanes(got[:], Z[:])
			for l := range got {
				if got[l] != want[l] {
					t.Fatalf("%sLanes %s lane %d: x=%x y=%x got %x, want %x", op.name, alias, l, x[l], y[l], got[l], want[l])
				}
			}
		}
	}
}

// mulRowLens are the row lengths checkMulRows drives: an empty row, one
// value, a pair, a pair and an odd last row, whole pairs, and odd last
// rows after them.
var mulRowLens = []int{0, 1, 2, 3, 8, 9, 17, 64}

// checkMulRows runs MulLanes and ScalarMulLanes through the selected body
// over rows of every length in mulRowLens and compares every lane with
// Element.Mul: MulLanes with z distinct, aliasing x, aliasing y, and
// aliasing both (a square); ScalarMulLanes with z distinct and aliasing x.
// Lane l of value k holds xs[(l+k) mod 8] in x and ys[(l+3k) mod 8] in y,
// so neighbouring values differ wherever xs and ys do, and a product
// stored to the wrong row, or taken with the wrong row's multiplier,
// shows.
func checkMulRows(t testing.TB, xs, ys *[LaneCount]Element) {
	t.Helper()
	c := NewLaneConst(&ys[0])
	for _, n := range mulRowLens {
		x, y := make([]Element, LaneCount*n), make([]Element, LaneCount*n)
		for i := range x {
			l, k := i%LaneCount, i/LaneCount
			x[i], y[i] = xs[(l+k)%LaneCount], ys[(l+3*k)%LaneCount]
		}
		X, Y, Z := make([]Lanes, n), make([]Lanes, n), make([]Lanes, n)
		PackLanes(X, x)
		PackLanes(Y, y)
		got := make([]Element, LaneCount*n)
		var e Element
		for _, tc := range []struct {
			name string
			run  func()
			want func(i int) *Element
		}{
			{"MulLanes", func() { MulLanes(Z, X, Y) }, func(i int) *Element { return e.Mul(&x[i], &y[i]) }},
			{"MulLanes z==x", func() { copy(Z, X); MulLanes(Z, Z, Y) }, func(i int) *Element { return e.Mul(&x[i], &y[i]) }},
			{"MulLanes z==y", func() { copy(Z, Y); MulLanes(Z, X, Z) }, func(i int) *Element { return e.Mul(&x[i], &y[i]) }},
			{"MulLanes z==x==y", func() { copy(Z, X); MulLanes(Z, Z, Z) }, func(i int) *Element { return e.Mul(&x[i], &x[i]) }},
			{"ScalarMulLanes", func() { ScalarMulLanes(Z, X, c.Row()) }, func(i int) *Element { return e.Mul(&x[i], &ys[0]) }},
			{"ScalarMulLanes z==x", func() { copy(Z, X); ScalarMulLanes(Z, Z, c.Row()) }, func(i int) *Element { return e.Mul(&x[i], &ys[0]) }},
		} {
			tc.run()
			UnpackLanes(got, Z)
			for i := range got {
				if w := tc.want(i); got[i] != *w {
					t.Fatalf("n=%d %s value %d lane %d: got %x, want %x", n, tc.name, i/LaneCount, i%LaneCount, got[i], *w)
				}
			}
		}
	}
}

func TestLanesConstants(t *testing.T) {
	var ql big.Int
	for j := laneLimbs - 1; j >= 0; j-- {
		ql.Lsh(&ql, 52).Or(&ql, new(big.Int).SetUint64(laneConst[j]))
	}
	if ql.Cmp(qBig) != 0 {
		t.Fatalf("laneConst limbs give %x, want q = %x", &ql, qBig)
	}
	if got := laneConst[laneLimbs] * q[0] & (1<<52 - 1); got != 1<<52-1 {
		t.Fatalf("−q⁻¹·q mod 2^52 = %x, want 2^52 − 1", got)
	}
	if laneConst[laneLimbs-1] >= 1<<47 {
		t.Fatalf("q's top limb %x is not below 2^47", laneConst[laneLimbs-1])
	}
}

// TestLanesEdges runs every ordered pair of edge elements, eight pairs per
// call.
func TestLanesEdges(t *testing.T) {
	edges := laneEdges()
	cputest.EachLaneBody(t, func(t *testing.T) {
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
	})
}

// TestLanesRandom is the bulk differential: 10⁵ seeded random lane pairs
// (10⁴ with -short).
func TestLanesRandom(t *testing.T) {
	n := 100_000 / LaneCount
	if testing.Short() {
		n /= 10
	}
	cputest.EachLaneBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(39))
		var x, y [LaneCount]Element
		for i := 0; i < n; i++ {
			for l := range x {
				x[l], y[l] = randRaw(rng), randRaw(rng)
			}
			checkLanes(t, &x, &y)
		}
	})
}

// TestLaneRows checks the row functions against Element arithmetic:
// MulLanes and ScalarMulLanes through checkMulRows; then at row lengths 0,
// 1, 2, 3, 7 and 64 AddLanes and SubLanes with the result aliasing an
// input, MulLanes by a LaneConst, and PackLanesPairs over a pair table
// and over one that starts at an odd offset (x = pairs[1:]); then partial
// rows: PackLanes, PackLanesPairs and UnpackLanes on 1–17 elements or
// pairs, whose last value's dead lanes must pack as zero and unpack
// nowhere.
func TestLaneRows(t *testing.T) {
	cputest.EachLaneBody(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(40))
		var xs, ys [LaneCount]Element
		for l := range xs {
			xs[l], ys[l] = randRaw(rng), randRaw(rng)
		}
		checkMulRows(t, &xs, &ys)
		edges := laneEdges()
		for _, n := range []int{0, 1, 2, 3, 7, 64} {
			m := LaneCount * n
			x, y, pairs := make([]Element, m), make([]Element, m), make([]Element, 2*m+1)
			for i := range x {
				x[i], y[i] = randRaw(rng), edges[i%len(edges)]
			}
			for i := range pairs {
				pairs[i] = randRaw(rng)
			}
			c := randRaw(rng)
			C := NewLaneConst(&c)
			X, Y := make([]Lanes, n), make([]Lanes, n)
			PackLanes(X, x)
			PackLanes(Y, y)

			check := func(name string, got []Lanes, want func(i int) Element) {
				t.Helper()
				out := make([]Element, m)
				UnpackLanes(out, got)
				for i := range out {
					if w := want(i); out[i] != w {
						t.Fatalf("n=%d %s entry %d: got %x, want %x", n, name, i, out[i], w)
					}
				}
			}
			var e Element
			Z := make([]Lanes, n)
			copy(Z, Y)
			AddLanes(Z, X, Z)
			check("AddLanes z==y", Z, func(i int) Element { return *e.Add(&x[i], &y[i]) })
			copy(Z, X)
			SubLanes(Z, Z, Y)
			check("SubLanes z==x", Z, func(i int) Element { return *e.Sub(&x[i], &y[i]) })
			for k := range Z {
				MulLanes(Z[k:k+1], X[k:k+1], C.Row())
			}
			check("MulLanes by LaneConst", Z, func(i int) Element { return *e.Mul(&x[i], &c) })
			W := make([]Lanes, n)
			PackLanesPairs(Z, W, pairs[:2*m])
			check("PackLanesPairs evens", Z, func(i int) Element { return pairs[2*i] })
			check("PackLanesPairs odds", W, func(i int) Element { return pairs[2*i+1] })
			PackLanesPairs(Z, W, pairs[1:])
			check("PackLanesPairs evens of pairs[1:]", Z, func(i int) Element { return pairs[2*i+1] })
			check("PackLanesPairs odds of pairs[1:]", W, func(i int) Element { return pairs[2*i+2] })
		}

		// Partial rows, packed over values that held other elements.
		for m := 1; m <= 17; m++ {
			g := (m + LaneCount - 1) / LaneCount
			x, pairs := make([]Element, m), make([]Element, 2*m)
			for i := range x {
				x[i] = randRaw(rng)
			}
			for i := range pairs {
				pairs[i] = randRaw(rng)
			}
			stale := make([]Element, LaneCount*g)
			for i := range stale {
				stale[i] = randRaw(rng)
			}
			check := func(name string, got []Lanes, want func(i int) Element) {
				t.Helper()
				out := make([]Element, LaneCount*g)
				UnpackLanes(out, got)
				for i := range out {
					w := Element{}
					if i < m {
						w = want(i)
					}
					if out[i] != w {
						t.Fatalf("m=%d %s entry %d: got %x, want %x", m, name, i, out[i], w)
					}
				}
			}
			X, Y := make([]Lanes, g), make([]Lanes, g)
			PackLanes(X, stale)
			PackLanes(Y, stale)
			PackLanes(X, x)
			check("PackLanes", X, func(i int) Element { return x[i] })
			PackLanes(X, stale)
			PackLanesPairs(X, Y, pairs)
			check("PackLanesPairs evens", X, func(i int) Element { return pairs[2*i] })
			check("PackLanesPairs odds", Y, func(i int) Element { return pairs[2*i+1] })
			out := append([]Element(nil), stale...)
			UnpackLanes(out[:m], Y)
			for i := range out {
				w := stale[i]
				if i < m {
					w = pairs[2*i+1]
				}
				if out[i] != w {
					t.Fatalf("m=%d UnpackLanes(x[:%d]) entry %d: got %x, want %x", m, m, i, out[i], w)
				}
			}
		}
	})
}

// FuzzLanes decodes up to sixteen elements (eight x, eight y) from the
// input, filling what it does not cover with edge elements. The scalar
// half checks Element.Mul and Sub against math/big; the vector half checks
// every lane of Lanes against them, on one-value rows and on the rows of
// checkMulRows.
func FuzzLanes(f *testing.F) {
	edges := laneEdges()
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
			if toBig(&sub).Cmp(d.Mod(d, qBig)) != 0 {
				t.Fatalf("Sub(%x, %x) = %x, math/big %v", x[l], y[l], sub, d)
			}
		}
		cputest.EachLaneBody(t, func(t *testing.T) {
			checkLanes(t, &x, &y)
			checkMulRows(t, &x, &y)
		})
	})
}

// BenchmarkLanes reports the selected body's cost per product (and per add
// and sub) beside BenchmarkMul's ff.Mul, both for a one-value row per call
// (chained, as BenchmarkMul does) and for a 64-value row per call:
//
//	go test -run '^$' -bench 'Lanes|Mul' ./internal/ff
func BenchmarkLanes(b *testing.B) {
	rng := rand.New(rand.NewSource(41))
	var x [LaneCount]Element
	for l := range x {
		x[l] = randRaw(rng)
	}
	var X [1]Lanes
	PackLanes(X[:], x[:])
	for _, op := range laneOps {
		b.Run(op.name, func(b *testing.B) {
			Z := X
			for i := 0; i < b.N; i++ {
				op.vec(Z[:], Z[:], X[:])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*LaneCount), "ns/elem")
		})
	}
	const rowLen = 64
	row := make([]Lanes, rowLen)
	for i := range row {
		row[i] = X[0]
	}
	elems := make([]Element, LaneCount*rowLen)
	for _, op := range []struct {
		name string
		f    func()
	}{
		{"MulRow", func() { MulLanes(row, row, row) }},
		{"AddRow", func() { AddLanes(row, row, row) }},
		{"PackRow", func() { PackLanes(row, elems) }},
		{"UnpackRow", func() { UnpackLanes(elems, row) }},
	} {
		b.Run(op.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op.f()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*LaneCount*rowLen), "ns/elem")
		})
	}
	// A pair table's two rows in one pass, per pair.
	odd, pairs := make([]Lanes, rowLen), make([]Element, 2*LaneCount*rowLen)
	b.Run("PackPairsRow", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PackLanesPairs(row, odd, pairs)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*LaneCount*rowLen), "ns/pair")
	})
}
