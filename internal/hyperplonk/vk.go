package hyperplonk

import (
	"bytes"
	"fmt"

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
// The layout after the magic and the tag is Index.walk, over the proof's
// codec (serialize.go): a commitment is a uvarint size and a 48-byte
// compressed point. The magic's version moves with the proof's; a
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

// walk is the verifying key's wire layout after the gate tag.
func (idx *Index) walk(c codec) {
	c.length(&idx.NumVars)
	c.length(&idx.Wires)
	n := len(idx.SelectorNames)
	c.length(&n)
	resize(&idx.SelectorNames, n)
	resize(&idx.SelectorComms, n)
	for i := range n {
		c.str(&idx.SelectorNames[i])
		commitment(c, &idx.SelectorComms[i])
	}
	list(c, &idx.SigmaComms, commitment)
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
	idx.walk(&e)
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
	idx.walk(d)
	if err := d.finish(); err != nil {
		return nil, err
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
// selectors, a commitment sized for another circuit) must fail at decode
// time, not deep inside verification.
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
	for _, comms := range [][]pcs.Commitment{idx.SelectorComms, idx.SigmaComms} {
		for _, cm := range comms {
			if cm.NumVars != idx.NumVars {
				return fmt.Errorf("hyperplonk: a 2^%d commitment in a key for 2^%d rows", cm.NumVars, idx.NumVars)
			}
		}
	}
	return nil
}
