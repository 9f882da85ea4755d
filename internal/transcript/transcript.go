// Package transcript implements the Fiat–Shamir transcript used to derive
// verifier challenges non-interactively. Every prover message is absorbed
// under a label; challenges are squeezed by hashing the running state with
// SHA3-256 (the standard library's crypto/sha3), matching the SHA3 unit in
// the zkPHIRE datapath that hashes round evaluations into the next
// MLE-update challenge (Fig. 1).
package transcript

import (
	"crypto/sha3"
	"encoding/binary"

	"zkphire/internal/ff"
)

// Transcript is a stateful Fiat–Shamir sponge. It is not safe for concurrent
// use.
type Transcript struct {
	state [32]byte
	count uint64
}

// New returns a transcript domain-separated by label.
func New(label string) *Transcript {
	t := &Transcript{}
	t.state = sha3.Sum256([]byte("zkphire/v1/" + label))
	return t
}

// absorb folds data into the state under a label.
func (t *Transcript) absorb(label string, data []byte) {
	h := sha3.New256()
	h.Write(t.state[:])
	var lenBuf [8]byte
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(label)))
	h.Write(lenBuf[:])
	h.Write([]byte(label))
	binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(data)))
	h.Write(lenBuf[:])
	h.Write(data)
	t.state = [32]byte(h.Sum(nil))
}

// AppendBytes absorbs raw bytes under a label.
func (t *Transcript) AppendBytes(label string, data []byte) {
	t.absorb(label, data)
}

// AppendScalar absorbs a field element.
func (t *Transcript) AppendScalar(label string, e *ff.Element) {
	b := e.Bytes()
	t.absorb(label, b[:])
}

// AppendScalars absorbs a slice of field elements.
func (t *Transcript) AppendScalars(label string, es []ff.Element) {
	h := sha3.New256()
	for i := range es {
		b := es[i].Bytes()
		h.Write(b[:])
	}
	t.absorb(label, h.Sum(nil))
}

// AppendUint64 absorbs an integer.
func (t *Transcript) AppendUint64(label string, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	t.absorb(label, buf[:])
}

// ChallengeScalar squeezes one field-element challenge.
func (t *Transcript) ChallengeScalar(label string) ff.Element {
	t.count++
	h := sha3.New256()
	h.Write(t.state[:])
	h.Write([]byte("challenge/" + label))
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], t.count)
	h.Write(cnt[:])
	d1 := h.Sum(nil)

	// A second squeeze widens to 64 bytes so the modular reduction bias is
	// negligible (~2^-257).
	h2 := sha3.New256()
	h2.Write(d1)
	h2.Write([]byte{0x01})
	d2 := h2.Sum(nil)

	t.state = [32]byte(d1)
	var e ff.Element
	e.SetBytes(append(d1, d2...))
	return e
}

// ChallengeScalars squeezes n independent challenges.
func (t *Transcript) ChallengeScalars(label string, n int) []ff.Element {
	out := make([]ff.Element, n)
	for i := range out {
		out[i] = t.ChallengeScalar(label)
	}
	return out
}
