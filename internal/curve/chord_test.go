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
// eighth, flushes it, and returns the table and the parked slots. want[i]
// is the sum the i-th addition must leave, by Jacobian arithmetic.
func runQueue(pts []G1Affine, m int) (res queueResult, want []G1Affine) {
	tab := newBucketTable(14)
	defer tab.release()
	var q bucketQueue
	q.init(&tab)
	defer q.release()

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
	q.flush()
	res.buckets = append(res.buckets, tab.buckets...)
	res.full = append(res.full, tab.full...)
	res.pend = append(res.pend, q.pend[:q.nPend]...)
	return res, want
}

// TestFlushLanesMatchesScalar runs one queued batch through the lane-staged
// chord queue's flush and checks every bucket and parked slot against the
// scalar Jacobian sum of its two points, for batch sizes around one lane
// group and a full queue, on every fp.Lanes body this host has.
func TestFlushLanesMatchesScalar(t *testing.T) {
	pts := multiplesOfG(2*maxBatch + maxBatch/8 + 8)
	for _, m := range []int{1, 7, 8, 9, maxBatch} {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			eachLaneBody(t, func(t *testing.T) {
				res, want := runQueue(pts, m)
				// Additions land in order: even i in the next bucket, odd i
				// in the next parked slot, each annihilation emptying one of
				// each.
				var bi, pi int
				for i := range want {
					var got affPair
					if i%2 == 0 {
						if !res.full[bi] {
							t.Fatalf("addition %d: bucket %d empty", i, bi)
						}
						got = res.buckets[bi]
						bi++
					} else {
						got = affPair{res.pend[pi].x, res.pend[pi].y}
						pi++
					}
					if got.X != want[i].X || got.Y != want[i].Y {
						t.Fatalf("addition %d: got %v, Jacobian sum %v", i, got, want[i])
					}
					if i%8 == 0 {
						if res.full[bi] || !res.pend[pi].dead {
							t.Fatalf("annihilation after addition %d left bucket full=%v, slot dead=%v", i, res.full[bi], res.pend[pi].dead)
						}
						bi++
						pi++
					}
				}
				if bi < len(res.full) && res.full[bi] {
					t.Fatalf("bucket %d past the last addition is full", bi)
				}
			})
		})
	}
}

// BenchmarkChordQueue times one full queue (maxBatch chord additions),
// push and flush, per addition, on the fp.Lanes body this host selects:
//
//	go test -run '^$' -bench ChordQueue ./internal/curve
func BenchmarkChordQueue(b *testing.B) {
	pts := multiplesOfG(2 * maxBatch)
	var q chordQueue
	q.init(maxBatch)
	defer q.release()
	for i := 0; i < b.N; i++ {
		for j := 0; j < maxBatch; j++ {
			p, r := &pts[2*j], &pts[2*j+1]
			q.push(&p.X, &p.Y, &r.X, &r.Y, false)
		}
		q.flush()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*maxBatch), "ns/add")
}
