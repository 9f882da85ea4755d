package hyperplonk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"zkphire/internal/curve"
	"zkphire/internal/ff"
	"zkphire/internal/pcs"
	"zkphire/internal/sumcheck"
)

// Binary proof serialization, wire format v2. Scalars are 32-byte
// big-endian canonical encodings; points are 48-byte compressed G1
// (curve.G1Affine.Compressed); list lengths and commitment sizes are
// minimal uvarints. Each proof has exactly one encoding, and the decoder
// checks every scalar's range and every point's encoding and subgroup, so
// an untrusted wire cannot smuggle invalid group elements into
// verification. The transcript absorbs uncompressed x‖y, not these bytes,
// so the encoding can change without changing a proof; bytes of any other
// version fail with ErrWireFormat.
//
// Each layout is written once, as a walk over its fields in wire order
// (Proof.walk here, Index.walk in vk.go). The walk hands every field to a
// codec: the encoder writes it, the decoder overwrites it.

const proofMagic = "zkphire/proof/v2"

// ErrWireFormat is wrapped by the proof and verifying-key decoders when the
// input does not start with the current magic — v1 bytes included.
var ErrWireFormat = errors.New("hyperplonk: unsupported wire format")

// checkMagic consumes magic from the front of data.
func checkMagic(data []byte, magic string) ([]byte, error) {
	rest, ok := bytes.CutPrefix(data, []byte(magic))
	if !ok {
		return nil, fmt.Errorf("%w: want %s", ErrWireFormat, magic)
	}
	return rest, nil
}

// A codec is one direction of the wire format. length is a minimal uvarint
// (a list length or a commitment size); fixed is a length the format pins
// to n; str is a length-prefixed string.
type codec interface {
	length(n *int)
	fixed(n int)
	scalar(s *ff.Element)
	point(p *curve.G1Affine)
	str(s *string)
}

// list walks a length-prefixed list; the decoder sizes it from the wire.
func list[T any](c codec, s *[]T, walk func(codec, *T)) {
	n := len(*s)
	c.length(&n)
	resize(s, n)
	for i := range *s {
		walk(c, &(*s)[i])
	}
}

func resize[T any](s *[]T, n int) {
	if len(*s) != n {
		*s = make([]T, n)
	}
}

// part returns *p, allocating it first if nil: the decoder walks a proof
// whose parts do not exist yet.
func part[T any](p **T) *T {
	if *p == nil {
		*p = new(T)
	}
	return *p
}

func scalars(c codec, s *[]ff.Element) { list(c, s, codec.scalar) }

func commitment(c codec, cm *pcs.Commitment) {
	c.length(&cm.NumVars)
	c.point(&cm.Point)
}

// sumcheckProof walks the claim and round polynomials only: the final
// constituent evaluations are NOT on the wire — the protocol's batch
// evaluation claims (GateEvals, VEvals, PolyEvals, …) are the canonical
// carriers, and serializing FinalEvals too would add malleable redundant
// bytes the verifier never reads.
func sumcheckProof(c codec, p *sumcheck.Proof) {
	c.scalar(&p.Claim)
	list(c, &p.RoundEvals, scalars)
}

func (p *OpenProof) walk(c codec) {
	sumcheckProof(c, part(&p.Sumcheck))
	scalars(c, &p.PolyEvals)
	c.scalar(&p.Opened)
	list(c, &part(&p.PCS).Qs, codec.point)
}

// walk is the proof's wire layout.
func (p *Proof) walk(c codec) {
	list(c, &p.WireComms, commitment)
	commitment(c, &p.VComm)
	sumcheckProof(c, part(&part(&p.GateZC).Inner))
	scalars(c, &p.GateEvals)
	sumcheckProof(c, part(&part(&p.PermZC).Inner))
	c.fixed(len(p.VEvals))
	for i := range p.VEvals {
		c.scalar(&p.VEvals[i])
	}
	scalars(c, &p.WirePermEvals)
	scalars(c, &p.SigmaPermEvals)
	part(&p.OpenMain).walk(c)
	part(&p.OpenV).walk(c)
}

// MarshalBinary serializes the proof.
func (p *Proof) MarshalBinary() ([]byte, error) {
	var e encoder
	e.buf.WriteString(proofMagic)
	p.walk(&e)
	return e.buf.Bytes(), nil
}

// UnmarshalBinary deserializes and validates a proof.
func (p *Proof) UnmarshalBinary(data []byte) error {
	body, err := checkMagic(data, proofMagic)
	if err != nil {
		return err
	}
	d := &decoder{r: bytes.NewReader(body)}
	*p = Proof{}
	p.walk(d)
	if err := d.finish(); err != nil {
		return err
	}
	return d.subgroup()
}

type encoder struct{ buf bytes.Buffer }

func (e *encoder) length(n *int) {
	e.buf.Write(binary.AppendUvarint(e.buf.AvailableBuffer(), uint64(*n)))
}

func (e *encoder) fixed(n int) { e.length(&n) }

func (e *encoder) scalar(s *ff.Element) {
	b := s.Bytes()
	e.buf.Write(b[:])
}

func (e *encoder) point(p *curve.G1Affine) {
	b := p.Compressed()
	e.buf.Write(b[:])
}

func (e *encoder) str(s *string) {
	n := len(*s)
	e.length(&n)
	e.buf.WriteString(*s)
}

// decoder reads the wire format. Its first error sticks: every later read
// leaves its field zero and returns a zero length, so a walk runs to its
// end without checks and finish reports the error. A point is decoded onto
// the curve as it is read and checked in the subgroup (a 128-bit scalar
// multiplication) by subgroup, once the whole input has parsed, so
// malformed bytes fail on the cheap checks.
type decoder struct {
	r      *bytes.Reader
	err    error
	points []*curve.G1Affine
}

// maxList bounds list lengths against corrupt/hostile inputs.
const maxList = 1 << 20

// length reads a minimal uvarint: a padded one (0x81 0x00 for 1) would be
// a second encoding of the same proof.
func (d *decoder) length(n *int) {
	*n = 0
	if d.err != nil {
		return
	}
	before := d.r.Len()
	v, err := binary.ReadUvarint(d.r)
	var tmp [binary.MaxVarintLen64]byte
	switch {
	case err != nil:
		d.err = err
	case before-d.r.Len() != binary.PutUvarint(tmp[:], v):
		d.err = fmt.Errorf("hyperplonk: padded uvarint")
	case v > maxList:
		d.err = fmt.Errorf("hyperplonk: list length %d exceeds limit", v)
	default:
		*n = int(v)
	}
}

func (d *decoder) fixed(n int) {
	var got int
	if d.length(&got); d.err == nil && got != n {
		d.err = fmt.Errorf("hyperplonk: a list of %d where the format fixes %d", got, n)
	}
}

// read fills b. io.ReadFull: a plain Read on a bytes.Reader short-reads
// without error at the end of input, which would let truncated fields
// decode.
func (d *decoder) read(b []byte) bool {
	if d.err == nil {
		_, d.err = io.ReadFull(d.r, b)
	}
	return d.err == nil
}

func (d *decoder) scalar(s *ff.Element) {
	var b [32]byte
	if d.read(b[:]) {
		d.err = s.SetBytesCanonical(b[:])
	}
}

func (d *decoder) point(p *curve.G1Affine) {
	var b [curve.CompressedSize]byte
	if d.read(b[:]) {
		d.err = p.SetCompressed(b[:])
		d.points = append(d.points, p)
	}
}

func (d *decoder) str(s *string) {
	var n int
	d.length(&n)
	b := make([]byte, n)
	if d.read(b) {
		*s = string(b)
	}
}

// finish reports the first error of the walk, then any bytes it left.
func (d *decoder) finish() error {
	if d.err == nil && d.r.Len() != 0 {
		return fmt.Errorf("hyperplonk: %d trailing bytes", d.r.Len())
	}
	return d.err
}

// subgroup checks every decoded point against the order-r subgroup.
func (d *decoder) subgroup() error {
	for _, p := range d.points {
		if !p.IsInSubgroup() {
			return fmt.Errorf("hyperplonk: point not in the order-r subgroup")
		}
	}
	return nil
}
