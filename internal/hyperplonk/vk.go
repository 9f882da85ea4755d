package hyperplonk

import (
	"bytes"
	"fmt"
	"io"

	"zkphire/internal/pcs"
	"zkphire/internal/poly"
)

// Verifying-key serialization. The wire format carries the verifier's view
// of an Index — sizes, selector names, selector and sigma COMMITMENTS, and
// a gate tag — but not the MLE tables, which only the prover needs. A
// deserialized Index therefore verifies proofs but cannot drive Prove.
//
// The gate composite itself is not serialized: the public API admits
// exactly the two registry arithmetizations, so a one-byte tag rebuilds it.
//
// Commitments share the proof codec (serialize.go): a uvarint size and a
// 48-byte compressed point. The magic's version moves with the proof's; a
// key of another version fails with ErrWireFormat.

const vkMagic = "zkphire/vk/v2"

const (
	vkGateVanilla   = 0
	vkGateJellyfish = 1
)

// gateTag maps a circuit gate composite onto its wire tag.
func gateTag(gate *poly.Composite) (byte, error) {
	if gate == nil {
		return 0, fmt.Errorf("hyperplonk: index has no gate composite")
	}
	switch gate.Name {
	case "VanillaGate":
		return vkGateVanilla, nil
	case "JellyfishGate":
		return vkGateJellyfish, nil
	}
	return 0, fmt.Errorf("hyperplonk: gate %q is not serializable (Vanilla and Jellyfish only)", gate.Name)
}

// MarshalBinary serializes the verifier's view of the index.
func (idx *Index) MarshalBinary() ([]byte, error) {
	tag, err := gateTag(idx.Gate)
	if err != nil {
		return nil, err
	}
	if len(idx.SelectorNames) != len(idx.SelectorComms) {
		return nil, fmt.Errorf("hyperplonk: %d selector names, %d commitments", len(idx.SelectorNames), len(idx.SelectorComms))
	}
	var e encoder
	e.buf.WriteString(vkMagic)
	e.buf.WriteByte(tag)
	e.uvarint(uint64(idx.NumVars))
	e.uvarint(uint64(idx.Wires))
	e.uvarint(uint64(len(idx.SelectorNames)))
	for i, name := range idx.SelectorNames {
		e.uvarint(uint64(len(name)))
		e.buf.WriteString(name)
		e.commitment(&idx.SelectorComms[i])
	}
	e.uvarint(uint64(len(idx.SigmaComms)))
	for i := range idx.SigmaComms {
		e.commitment(&idx.SigmaComms[i])
	}
	return e.buf.Bytes(), nil
}

// UnmarshalVerifyingKey deserializes and validates a verifying key written
// by Index.MarshalBinary. Every point is decoded onto the curve and checked
// in the order-r subgroup.
func UnmarshalVerifyingKey(data []byte) (*Index, error) {
	body, err := checkMagic(data, vkMagic)
	if err != nil {
		return nil, err
	}
	d := &decoder{r: bytes.NewReader(body)}
	tag, err := d.r.ReadByte()
	if err != nil {
		return nil, err
	}
	idx := &Index{}
	switch tag {
	case vkGateVanilla:
		idx.Gate = poly.VanillaGate()
	case vkGateJellyfish:
		idx.Gate = poly.JellyfishGate()
	default:
		return nil, fmt.Errorf("hyperplonk: unknown gate tag %d", tag)
	}

	nv, err := d.length()
	if err != nil {
		return nil, err
	}
	idx.NumVars = nv
	wires, err := d.length()
	if err != nil {
		return nil, err
	}
	idx.Wires = wires

	numSel, err := d.length()
	if err != nil {
		return nil, err
	}
	idx.SelectorNames = make([]string, numSel)
	idx.SelectorComms = make([]pcs.Commitment, numSel)
	for i := 0; i < numSel; i++ {
		nameLen, err := d.length()
		if err != nil {
			return nil, err
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(d.r, name); err != nil {
			return nil, err
		}
		idx.SelectorNames[i] = string(name)
		if err := d.commitment(&idx.SelectorComms[i]); err != nil {
			return nil, err
		}
	}

	numSigma, err := d.length()
	if err != nil {
		return nil, err
	}
	idx.SigmaComms = make([]pcs.Commitment, numSigma)
	for i := 0; i < numSigma; i++ {
		if err := d.commitment(&idx.SigmaComms[i]); err != nil {
			return nil, err
		}
	}
	if d.r.Len() != 0 {
		return nil, fmt.Errorf("hyperplonk: %d trailing bytes in verifying key", d.r.Len())
	}
	if err := idx.validateShape(); err != nil {
		return nil, err
	}
	if err := d.subgroup(); err != nil {
		return nil, err
	}
	return idx, nil
}

// validateShape cross-checks a decoded key against its gate composite: a
// structurally inconsistent key (wrong wire count, missing or foreign
// selectors) must fail at decode time, not deep inside verification.
func (idx *Index) validateShape() error {
	// Gate arity = selectors + wires (the eq factor is appended at proving
	// time), so both counts are pinned by the gate tag.
	wantWires := 3
	if idx.Gate.Name == "JellyfishGate" {
		wantWires = 5
	}
	wantSel := idx.Gate.NumVars() - wantWires
	if idx.Wires != wantWires {
		return fmt.Errorf("hyperplonk: %d wires for %s, want %d", idx.Wires, idx.Gate.Name, wantWires)
	}
	if len(idx.SigmaComms) != idx.Wires {
		return fmt.Errorf("hyperplonk: %d sigma commitments for %d wires", len(idx.SigmaComms), idx.Wires)
	}
	if len(idx.SelectorNames) != wantSel {
		return fmt.Errorf("hyperplonk: %d selectors for %s, want %d", len(idx.SelectorNames), idx.Gate.Name, wantSel)
	}
	for i, name := range idx.SelectorNames {
		if idx.Gate.VarIndex(name) < 0 {
			return fmt.Errorf("hyperplonk: selector %q is not a %s variable", name, idx.Gate.Name)
		}
		// Preprocess emits names sorted; strict order also rules out
		// duplicates.
		if i > 0 && idx.SelectorNames[i-1] >= name {
			return fmt.Errorf("hyperplonk: selector names not in canonical order")
		}
	}
	if idx.NumVars < 1 || idx.NumVars > 34 {
		return fmt.Errorf("hyperplonk: unreasonable circuit size 2^%d", idx.NumVars)
	}
	return nil
}
