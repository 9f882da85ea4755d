package hyperplonk

import (
	"bytes"
	"testing"
)

// These tests pin the serialization error paths the proving service leans
// on: anything a client can put on the wire — truncated, bit-flipped, or
// structurally wrong — must come back as an error, never a panic. They are
// the table-driven companions to the service round-trip test in
// internal/service.

func makeVKBytes(t *testing.T) []byte {
	t.Helper()
	_, idx := makeProof(t)
	data, err := idx.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestVerifyingKeyTruncationExhaustive decodes every proper prefix of a
// valid verifying key: each one must error. The VK is small enough that
// exhaustive truncation is cheap, so there is no sampling to get lucky
// with.
func TestVerifyingKeyTruncationExhaustive(t *testing.T) {
	data := makeVKBytes(t)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic on truncated verifying key: %v", r)
		}
	}()
	for cut := 0; cut < len(data); cut++ {
		if _, err := UnmarshalVerifyingKey(data[:cut]); err == nil {
			t.Fatalf("truncated verifying key (%d of %d bytes) accepted", cut, len(data))
		}
	}
	// And the untruncated key still decodes — the loop above tested what
	// it was meant to.
	if _, err := UnmarshalVerifyingKey(data); err != nil {
		t.Fatalf("pristine key rejected: %v", err)
	}
}

// TestVerifyingKeyCorruptionTable drives structured corruptions through
// the decoder.
func TestVerifyingKeyCorruptionTable(t *testing.T) {
	pristine := makeVKBytes(t)
	tagOfs := len(vkMagic) // the gate tag byte

	cases := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"empty input", func(b []byte) []byte { return nil }},
		{"magic only", func(b []byte) []byte { return b[:len(vkMagic)] }},
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }},
		{"unknown gate tag", func(b []byte) []byte { b[tagOfs] = 0x7f; return b }},
		{"wrong gate tag", func(b []byte) []byte {
			// Valid tag, wrong gate: a Vanilla key re-tagged Jellyfish has
			// the wrong wire and selector counts for the gate composite.
			b[tagOfs] ^= 1
			return b
		}},
		{"zero numvars", func(b []byte) []byte { b[tagOfs+1] = 0; return b }},
		{"huge numvars", func(b []byte) []byte { b[tagOfs+1] = 63; return b }},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0x00) }},
		{"doubled payload", func(b []byte) []byte { return append(b, b[len(vkMagic):]...) }},
		{"selector name corrupted", func(b []byte) []byte {
			// The first selector name's first byte sits after magic, tag,
			// numVars, wires, numSel, nameLen (all single-byte uvarints at
			// this circuit size).
			b[tagOfs+5] ^= 0x20
			return b
		}},
		{"selector commitment size", func(b []byte) []byte {
			// The first selector commitment's size follows its name: it
			// claims 7 variables for this 4-variable circuit.
			b[tagOfs+5+int(b[tagOfs+4])] = 7
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			bad := tc.mutate(append([]byte(nil), pristine...))
			if _, err := UnmarshalVerifyingKey(bad); err == nil {
				t.Fatal("corrupted verifying key accepted")
			}
		})
	}
}

// TestVerifyingKeyBitFlipsNeverPanic XORs every byte of the key with a few
// patterns. A flip may still decode (e.g. the y-sign flag of a point,
// which names its negation); what it must never do is panic — and when it
// does decode, the key must re-serialize, i.e. the decoder only admits
// shapes the encoder can produce.
func TestVerifyingKeyBitFlipsNeverPanic(t *testing.T) {
	pristine := makeVKBytes(t)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic on bit-flipped verifying key: %v", r)
		}
	}()
	for _, pattern := range []byte{0x01, 0x80, 0xff} {
		for ofs := 0; ofs < len(pristine); ofs++ {
			bad := append([]byte(nil), pristine...)
			bad[ofs] ^= pattern
			idx, err := UnmarshalVerifyingKey(bad)
			if err != nil {
				continue
			}
			if _, err := idx.MarshalBinary(); err != nil {
				t.Fatalf("flip at %d (^%#x) decoded into a key that cannot re-serialize: %v", ofs, pattern, err)
			}
		}
	}
}

// TestProofTruncationExhaustive is the proof-side analogue: every proper
// prefix of a serialized proof must fail to decode.
func TestProofTruncationExhaustive(t *testing.T) {
	proof, _ := makeProof(t)
	data, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic on truncated proof: %v", r)
		}
	}()
	for cut := 0; cut < len(data); cut++ {
		if err := new(Proof).UnmarshalBinary(data[:cut]); err == nil {
			t.Fatalf("truncated proof (%d of %d bytes) accepted", cut, len(data))
		}
	}
}

// TestProofFuzzSeeds replays the classic fuzz seed shapes — hostile length
// prefixes and junk — against the proof decoder.
func TestProofFuzzSeeds(t *testing.T) {
	proof, _ := makeProof(t)
	data, _ := proof.MarshalBinary()
	m := len(proofMagic)

	seeds := []struct {
		name string
		data []byte
	}{
		{"nil", nil},
		{"magic only", data[:m]},
		{"huge list length", append(append([]byte(nil), data[:m]...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01)},
		{"negative-looking varint", append(append([]byte(nil), data[:m]...), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80)},
		{"all zeros after magic", append(append([]byte(nil), data[:m]...), make([]byte, 64)...)},
		{"all 0xff", bytes.Repeat([]byte{0xff}, 128)},
	}
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic on fuzz seed: %v", r)
		}
	}()
	for _, s := range seeds {
		t.Run(s.name, func(t *testing.T) {
			if err := new(Proof).UnmarshalBinary(s.data); err == nil {
				t.Fatal("hostile input accepted")
			}
		})
	}
}
