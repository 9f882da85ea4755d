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
	b := p.Compressed()
	e.buf.Write(b[:])
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

// decoder reads the wire format. A point is decoded onto the curve as it is
// read and checked in the subgroup (a 128-bit scalar multiplication) by
// subgroup, once the whole input has parsed, so malformed bytes fail on the
// cheap checks.
type decoder struct {
	r      *bytes.Reader
	points []*curve.G1Affine
}

// uvarint reads a minimal uvarint: a padded one (0x81 0x00 for 1) would be
// a second encoding of the same proof.
func (d *decoder) uvarint() (uint64, error) {
	before := d.r.Len()
	v, err := binary.ReadUvarint(d.r)
	if err != nil {
		return 0, err
	}
	var tmp [binary.MaxVarintLen64]byte
	if before-d.r.Len() != binary.PutUvarint(tmp[:], v) {
		return 0, fmt.Errorf("hyperplonk: padded uvarint")
	}
	return v, nil
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
	var b [curve.CompressedSize]byte
	if _, err := io.ReadFull(d.r, b[:]); err != nil {
		return err
	}
	if err := out.SetCompressed(b[:]); err != nil {
		return err
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
	body, err := checkMagic(data, proofMagic)
	if err != nil {
		return err
	}
	d := &decoder{r: bytes.NewReader(body)}

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
