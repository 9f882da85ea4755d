package ff

import (
	"encoding/binary"
	"math/rand"
)

// Rand is a deterministic field-element source for tests and benchmarks.
type Rand struct{ src *rand.Rand }

// NewRand returns a deterministic source seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{src: rand.New(rand.NewSource(seed))}
}

// Element returns the next pseudo-random field element.
func (r *Rand) Element() Element {
	var buf [48]byte
	for i := 0; i < len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], r.src.Uint64())
	}
	var e Element
	e.SetBytes(buf[:])
	return e
}

// Elements returns n pseudo-random field elements.
func (r *Rand) Elements(n int) []Element {
	out := make([]Element, n)
	for i := range out {
		out[i] = r.Element()
	}
	return out
}

// SparseElements returns n elements where roughly density of the entries are
// random and the remainder are 0 or 1 with equal probability, mimicking the
// witness sparsity statistics used in the paper (90% sparse MLEs).
func (r *Rand) SparseElements(n int, density float64) []Element {
	out := make([]Element, n)
	for i := range out {
		if r.src.Float64() < density {
			out[i] = r.Element()
		} else if r.src.Intn(2) == 1 {
			out[i] = One()
		}
	}
	return out
}

// NewRandReader returns a deterministic io.Reader of pseudo-random bytes,
// usable wherever crypto/rand would be injected in production.
func NewRandReader(seed int64) *RandReader {
	return &RandReader{src: rand.New(rand.NewSource(seed))}
}

// RandReader is a deterministic byte stream for tests.
type RandReader struct{ src *rand.Rand }

// Read fills p with pseudo-random bytes; it never fails.
func (r *RandReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r.src.Intn(256))
	}
	return len(p), nil
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *Rand) Uint64() uint64 { return r.src.Uint64() }

// Intn returns a pseudo-random int in [0, n).
func (r *Rand) Intn(n int) int { return r.src.Intn(n) }

// Perm returns a pseudo-random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.src.Perm(n) }
