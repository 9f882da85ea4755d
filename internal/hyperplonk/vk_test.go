package hyperplonk

import (
	"bytes"
	"strings"
	"testing"

	"zkphire/internal/ff"
	"zkphire/internal/pcs"
)

// cloneIndex copies the verifier's view of idx, so a test can edit one
// field without touching the shared index.
func cloneIndex(idx *Index) *Index {
	c := *idx
	c.SelectorNames = append([]string(nil), idx.SelectorNames...)
	c.SelectorComms = append([]pcs.Commitment(nil), idx.SelectorComms...)
	c.SigmaComms = append([]pcs.Commitment(nil), idx.SigmaComms...)
	return &c
}

// TestVerifyingKeyRejectsCommitmentSizes sizes each selector and σ
// commitment, one at a time, for a circuit other than the key's: the key
// must fail to decode, not later in Verify with a mixed-arity error.
func TestVerifyingKeyRejectsCommitmentSizes(t *testing.T) {
	_, idx := makeProof(t)
	comms := func(k *Index) []*pcs.Commitment {
		var out []*pcs.Commitment
		for i := range k.SelectorComms {
			out = append(out, &k.SelectorComms[i])
		}
		for i := range k.SigmaComms {
			out = append(out, &k.SigmaComms[i])
		}
		return out
	}
	for i := range comms(idx) {
		bad := cloneIndex(idx)
		comms(bad)[i].NumVars += 3
		data, err := bad.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := UnmarshalVerifyingKey(data); err == nil || !strings.Contains(err.Error(), "commitment") {
			t.Errorf("commitment %d sized 2^%d in a 2^%d key: %v, want a commitment-size error", i, idx.NumVars+3, idx.NumVars, err)
		}
	}
}

// TestTranscriptBindsVerifyingKey changes each field newTranscript absorbs,
// one at a time: the first challenge drawn must change with it.
func TestTranscriptBindsVerifyingKey(t *testing.T) {
	_, idx := makeProof(t)
	first := func(k *Index) ff.Element {
		return newTranscript(k).ChallengeScalar("zerocheck/tau")
	}
	pristine := first(idx)
	for _, tc := range []struct {
		name string
		edit func(k *Index)
	}{
		{"NumVars", func(k *Index) { k.NumVars++ }},
		{"Wires", func(k *Index) { k.Wires++ }},
		{"selector name", func(k *Index) { k.SelectorNames[0] += "'" }},
		{"selector commitment", func(k *Index) { k.SelectorComms[0].Point.Neg(&k.SelectorComms[0].Point) }},
		{"sigma commitment", func(k *Index) { k.SigmaComms[0].Point.Neg(&k.SigmaComms[0].Point) }},
	} {
		k := cloneIndex(idx)
		tc.edit(k)
		if got := first(k); got.Equal(&pristine) {
			t.Errorf("%s changed, first challenge did not", tc.name)
		}
	}
}

// FuzzUnmarshalVerifyingKey: no input panics the decoder, and an input that
// decodes re-encodes to the identical bytes — each key has one encoding.
func FuzzUnmarshalVerifyingKey(f *testing.F) {
	_, idx := makeProof(f)
	data, err := idx.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(vkMagic))
	// NumVars, after the magic and the gate tag, padded to two bytes: the
	// same key, were padded uvarints accepted.
	nv := len(vkMagic) + 1
	padded := append(append([]byte(nil), data[:nv]...), data[nv]|0x80, 0)
	f.Add(append(padded, data[nv+1:]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		k, err := UnmarshalVerifyingKey(data)
		if err != nil {
			return
		}
		again, err := k.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("%d decoded bytes re-encode to %d different bytes", len(data), len(again))
		}
	})
}
