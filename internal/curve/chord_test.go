package curve

import (
	"fmt"
	"testing"

	"zkphire/internal/fp"
)

// queueResult is what a flush leaves behind: the bucket table and the
// parked slots.
type queueResult struct {
	buckets []affPair
	full    []bool
	pend    []pendOp
}

// runQueue builds one batch of m queued additions through enqueue and
// pairMerge — alternately a bucket addition (every fifth a doubling) and
// a pair merge of a parked slot (every seventh a doubling) — with a
// P + (−P) annihilation of a bucket and of a parked slot after every
// eighth, flushes it with add, and returns the table and the parked slots.
// want[i] is the sum the i-th addition must leave, by Jacobian arithmetic.
func runQueue(pts []G1Affine, m int, add chordAdder) (res queueResult, want []G1Affine) {
	tab := newBucketTable(14)
	defer tab.release()
	var q bucketQueue
	q.init(&tab)
	defer q.release()
	q.add = add

	var sum G1Jac
	expect := func(p1, p2 *G1Affine) {
		sum.FromAffine(p1)
		sum.AddMixed(p2)
		var a G1Affine
		want = append(want, *a.FromJacobian(&sum))
	}
	next := 0
	point := func() *G1Affine { next++; return &pts[next-1] }
	b := int32(0)
	for i := 0; i < m; i++ {
		p1 := point()
		p2 := p1
		if i%2 == 0 && i%5 != 0 || i%2 == 1 && i%7 != 0 {
			p2 = point()
		}
		expect(p1, p2)
		if i%2 == 0 {
			q.enqueue(b, &p1.X, &p1.Y)
			q.enqueue(b, &p2.X, &p2.Y)
			b++
		} else {
			h := int32(q.nPend)
			q.pend[h] = pendOp{x: p1.X, y: p1.Y, b: b}
			q.nPend++
			q.pairMerge(h, &pendOp{x: p2.X, y: p2.Y, b: b})
		}
		if i%8 == 0 {
			p := point()
			var y fp.Element
			y.Neg(&p.Y)
			q.enqueue(b, &p.X, &p.Y)
			q.enqueue(b, &p.X, &y)
			b++
			h := int32(q.nPend)
			q.pend[h] = pendOp{x: p.X, y: p.Y, b: b}
			q.nPend++
			q.pairMerge(h, &pendOp{x: p.X, y: y, b: b})
		}
	}
	if q.m > 0 {
		q.flush()
	}
	res.buckets = append(res.buckets, tab.buckets...)
	res.full = append(res.full, tab.full...)
	res.pend = append(res.pend, q.pend[:q.nPend]...)
	return res, want
}

// TestFlushLanesMatchesScalar runs one queued batch through the vector
// flush (addChordsLanes) and the scalar flush (addChordsScalar) and
// compares the buckets and parked slots bit for bit, for batch sizes
// around one lane group and a full queue. The scalar half is checked
// against Jacobian addition; without the fp.Lanes kernel only the vector
// half is skipped.
func TestFlushLanesMatchesScalar(t *testing.T) {
	pts := multiplesOfG(2*maxBatch + maxBatch/8 + 8)
	for _, m := range []int{1, 7, 8, 9, maxBatch} {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			ref, want := runQueue(pts, m, addChordsScalar)
			// Additions land in order: even i in the next bucket, odd i in
			// the next parked slot, each annihilation emptying one of each.
			var bi, pi int
			for i := range want {
				var got affPair
				if i%2 == 0 {
					if !ref.full[bi] {
						t.Fatalf("addition %d: bucket %d empty", i, bi)
					}
					got = ref.buckets[bi]
					bi++
				} else {
					got = affPair{ref.pend[pi].x, ref.pend[pi].y}
					pi++
				}
				if got.X != want[i].X || got.Y != want[i].Y {
					t.Fatalf("scalar flush, addition %d: got %v, Jacobian sum %v", i, got, want[i])
				}
				if i%8 == 0 {
					if ref.full[bi] || !ref.pend[pi].dead {
						t.Fatalf("annihilation after addition %d left bucket full=%v, slot dead=%v", i, ref.full[bi], ref.pend[pi].dead)
					}
					bi++
					pi++
				}
			}
			if !fp.HasLanes() {
				t.Skip("vector flush not compared: no AVX512IFMA (with AVX512F and OS-enabled ZMM state) on this CPU, or built with -tags purego or off amd64")
			}
			got, _ := runQueue(pts, m, addChordsLanes)
			for b := range ref.buckets {
				if got.full[b] != ref.full[b] || got.full[b] && got.buckets[b] != ref.buckets[b] {
					t.Fatalf("bucket %d: vector flush (full=%v) %v, scalar (full=%v) %v", b, got.full[b], got.buckets[b], ref.full[b], ref.buckets[b])
				}
			}
			if len(got.pend) != len(ref.pend) {
				t.Fatalf("vector flush parked %d slots, scalar %d", len(got.pend), len(ref.pend))
			}
			for h := range ref.pend {
				if got.pend[h] != ref.pend[h] {
					t.Fatalf("pend slot %d: vector flush %+v, scalar %+v", h, got.pend[h], ref.pend[h])
				}
			}
		})
	}
}

// BenchmarkAddChords times one full queue (maxBatch chord additions) on
// each path, per addition:
//
//	go test -run '^$' -bench AddChords ./internal/curve
func BenchmarkAddChords(b *testing.B) {
	pts := multiplesOfG(2 * maxBatch)
	num, den := make([]fp.Element, maxBatch), make([]fp.Element, maxBatch)
	x1, y1, x2 := make([]fp.Element, maxBatch), make([]fp.Element, maxBatch), make([]fp.Element, maxBatch)
	scratch := make([]fp.Element, maxBatch)
	for _, c := range []struct {
		name string
		add  chordAdder
	}{{"scalar", addChordsScalar}, {"lanes", addChordsLanes}} {
		b.Run(c.name, func(b *testing.B) {
			if c.name == "lanes" && !fp.HasLanes() {
				b.Skip("no AVX512IFMA on this CPU, or built with -tags purego or off amd64")
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := range num {
					p, q := &pts[2*j], &pts[2*j+1]
					num[j].Sub(&q.Y, &p.Y)
					den[j].Sub(&q.X, &p.X)
					x1[j], y1[j], x2[j] = p.X, p.Y, q.X
				}
				b.StartTimer()
				c.add(num, den, x1, y1, x2, scratch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*maxBatch), "ns/add")
		})
	}
}
