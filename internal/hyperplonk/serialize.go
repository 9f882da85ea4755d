package hyperplonk

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"zkphire/internal/curve"
	"zkphire/internal/ff"
	"zkphire/internal/fp"
	"zkphire/internal/pcs"
	"zkphire/internal/sumcheck"
)

// Binary proof serialization. Scalars are 32-byte big-endian canonical
// encodings; points are 96-byte uncompressed affine (x‖y) with a one-byte
// infinity flag. Deserialization validates every scalar (canonical range)
// and every point (on-curve and in the order-r subgroup), so a proof from
// an untrusted wire cannot smuggle invalid group elements into
// verification.

const proofMagic = "zkphire/proof/v1"

type encoder struct{ buf bytes.Buffer }

func (e *encoder) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	e.buf.Write(tmp[:n])
}

func (e *encoder) scalar(s *ff.Element) {
	b := s.Bytes()
	e.buf.Write(b[:])
}

func (e *encoder) scalars(ss []ff.Element) {
	e.uvarint(uint64(len(ss)))
	for i := range ss {
		e.scalar(&ss[i])
	}
}

func (e *encoder) point(p *curve.G1Affine) {
	if p.Infinity {
		e.buf.WriteByte(1)
		e.buf.Write(make([]byte, 96))
		return
	}
	e.buf.WriteByte(0)
	xb := p.X.Bytes()
	yb := p.Y.Bytes()
	e.buf.Write(xb[:])
	e.buf.Write(yb[:])
}

func (e *encoder) commitment(c *pcs.Commitment) {
	e.uvarint(uint64(c.NumVars))
	e.point(&c.Point)
}

// sumcheckProof serializes claim and round polynomials only: the final
// constituent evaluations are NOT on the wire — the protocol's batch
// evaluation claims (GateEvals, VEvals, PolyEvals, …) are the canonical
// carriers, and serializing FinalEvals too would add malleable redundant
// bytes the verifier never reads.
func (e *encoder) sumcheckProof(p *sumcheck.Proof) {
	e.scalar(&p.Claim)
	e.uvarint(uint64(len(p.RoundEvals)))
	for _, r := range p.RoundEvals {
		e.scalars(r)
	}
}

func (e *encoder) openProof(p *OpenProof) {
	e.sumcheckProof(p.Sumcheck)
	e.scalars(p.PolyEvals)
	e.scalar(&p.Opened)
	e.uvarint(uint64(len(p.PCS.Qs)))
	for i := range p.PCS.Qs {
		e.point(&p.PCS.Qs[i])
	}
}

// MarshalBinary serializes the proof.
func (p *Proof) MarshalBinary() ([]byte, error) {
	var e encoder
	e.buf.WriteString(proofMagic)
	e.uvarint(uint64(len(p.WireComms)))
	for i := range p.WireComms {
		e.commitment(&p.WireComms[i])
	}
	e.commitment(&p.VComm)
	e.sumcheckProof(p.GateZC.Inner)
	e.scalars(p.GateEvals)
	e.sumcheckProof(p.PermZC.Inner)
	e.scalars(p.VEvals[:])
	e.scalars(p.WirePermEvals)
	e.scalars(p.SigmaPermEvals)
	e.openProof(p.OpenMain)
	e.openProof(p.OpenV)
	return e.buf.Bytes(), nil
}

// decoder reads the wire format. A point is checked on-curve as it is read
// and in the subgroup (a 128-bit scalar multiplication) by subgroup, once
// the whole input has parsed, so malformed bytes fail on the cheap checks.
type decoder struct {
	r      *bytes.Reader
	points []*curve.G1Affine
}

func (d *decoder) uvarint() (uint64, error) {
	return binary.ReadUvarint(d.r)
}

// maxList bounds list lengths against corrupt/hostile inputs.
const maxList = 1 << 20

func (d *decoder) length() (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > maxList {
		return 0, fmt.Errorf("hyperplonk: list length %d exceeds limit", v)
	}
	return int(v), nil
}

func (d *decoder) scalar(out *ff.Element) error {
	var b [32]byte
	// io.ReadFull: a plain Read on a bytes.Reader short-reads without error
	// at the end of input, which would let truncated scalars decode.
	if _, err := io.ReadFull(d.r, b[:]); err != nil {
		return err
	}
	return out.SetBytesCanonical(b[:])
}

func (d *decoder) scalars() ([]ff.Element, error) {
	n, err := d.length()
	if err != nil {
		return nil, err
	}
	out := make([]ff.Element, n)
	for i := range out {
		if err := d.scalar(&out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (d *decoder) point(out *curve.G1Affine) error {
	flag, err := d.r.ReadByte()
	if err != nil {
		return err
	}
	var xy [96]byte
	if _, err := io.ReadFull(d.r, xy[:]); err != nil {
		return err
	}
	switch flag {
	case 1:
		// Infinity's coordinate block must be all zero — anything else is a
		// malleable second encoding of the same point.
		for _, b := range xy {
			if b != 0 {
				return fmt.Errorf("hyperplonk: nonzero coordinates on infinity point")
			}
		}
		out.SetInfinity()
		return nil
	case 0:
		// fall through to the finite-point path
	default:
		return fmt.Errorf("hyperplonk: bad point flag %d", flag)
	}
	var x, y fp.Element
	x.SetBytes(xy[:48])
	y.SetBytes(xy[48:])
	// Canonicality: SetBytes reduces mod p, so coordinates ≥ p would give a
	// second byte encoding of the same point. Re-encoding must reproduce
	// the input exactly.
	xb, yb := x.Bytes(), y.Bytes()
	if !bytes.Equal(xb[:], xy[:48]) || !bytes.Equal(yb[:], xy[48:]) {
		return fmt.Errorf("hyperplonk: non-canonical point coordinates")
	}
	out.X, out.Y, out.Infinity = x, y, false
	if !out.IsOnCurve() {
		return fmt.Errorf("hyperplonk: point not on curve")
	}
	d.points = append(d.points, out)
	return nil
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

func (d *decoder) commitment(out *pcs.Commitment) error {
	nv, err := d.length()
	if err != nil {
		return err
	}
	out.NumVars = nv
	return d.point(&out.Point)
}

func (d *decoder) sumcheckProof() (*sumcheck.Proof, error) {
	p := &sumcheck.Proof{}
	if err := d.scalar(&p.Claim); err != nil {
		return nil, err
	}
	rounds, err := d.length()
	if err != nil {
		return nil, err
	}
	p.RoundEvals = make([][]ff.Element, rounds)
	for i := range p.RoundEvals {
		if p.RoundEvals[i], err = d.scalars(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (d *decoder) openProof() (*OpenProof, error) {
	p := &OpenProof{PCS: &pcsOpening{}}
	var err error
	if p.Sumcheck, err = d.sumcheckProof(); err != nil {
		return nil, err
	}
	if p.PolyEvals, err = d.scalars(); err != nil {
		return nil, err
	}
	if err = d.scalar(&p.Opened); err != nil {
		return nil, err
	}
	n, err := d.length()
	if err != nil {
		return nil, err
	}
	p.PCS.Qs = make([]curve.G1Affine, n)
	for i := range p.PCS.Qs {
		if err := d.point(&p.PCS.Qs[i]); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// pcsOpening aliases the PCS opening type for construction.
type pcsOpening = pcs.OpeningProof

// UnmarshalBinary deserializes and validates a proof.
func (p *Proof) UnmarshalBinary(data []byte) error {
	if len(data) < len(proofMagic) || string(data[:len(proofMagic)]) != proofMagic {
		return fmt.Errorf("hyperplonk: bad proof magic")
	}
	d := &decoder{r: bytes.NewReader(data[len(proofMagic):])}

	n, err := d.length()
	if err != nil {
		return err
	}
	p.WireComms = make([]pcs.Commitment, n)
	for i := range p.WireComms {
		if err := d.commitment(&p.WireComms[i]); err != nil {
			return err
		}
	}
	if err := d.commitment(&p.VComm); err != nil {
		return err
	}
	gz, err := d.sumcheckProof()
	if err != nil {
		return err
	}
	p.GateZC = &sumcheck.ZeroCheckProof{Inner: gz}
	if p.GateEvals, err = d.scalars(); err != nil {
		return err
	}
	pz, err := d.sumcheckProof()
	if err != nil {
		return err
	}
	p.PermZC = &sumcheck.ZeroCheckProof{Inner: pz}
	ve, err := d.scalars()
	if err != nil {
		return err
	}
	if len(ve) != 4 {
		return fmt.Errorf("hyperplonk: expected 4 product-tree evaluations, got %d", len(ve))
	}
	copy(p.VEvals[:], ve)
	if p.WirePermEvals, err = d.scalars(); err != nil {
		return err
	}
	if p.SigmaPermEvals, err = d.scalars(); err != nil {
		return err
	}
	if p.OpenMain, err = d.openProof(); err != nil {
		return err
	}
	if p.OpenV, err = d.openProof(); err != nil {
		return err
	}
	if d.r.Len() != 0 {
		return fmt.Errorf("hyperplonk: %d trailing bytes", d.r.Len())
	}
	return d.subgroup()
}
