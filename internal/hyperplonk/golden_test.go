package hyperplonk

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"zkphire/internal/curve"
	"zkphire/internal/ff"
	"zkphire/internal/sumcheck"
)

// Golden proof pins. The protocol is deterministic and every optimization
// is value-preserving, so a fast path must reproduce these EXACTLY.
//
// content is format-independent: sha256 over every scalar's 32 bytes and
// every point's uncompressed x‖y, in wire order (contentDigest). It moves
// only when the protocol does — a new challenge, scalar or point. size and
// sha pin the wire bytes, and move also when the encoding does.
//
// If a future change intentionally alters the transcript or wire format,
// recapture these with a printf in checkGolden.
type goldenProof struct {
	name    string
	numVars int
	size    int
	sha     string
	content string
}

var goldenProofs = []goldenProof{
	{"vanilla", 4, 3106, "0ab4552576071f0d2c8eb9eba6249dd197bced4d5f32aa94991fe1cd3739adb0",
		"8703b76fea8ed2500a39429277e03eb12c89190ead788aa9ccfdc0425107f688"},
	{"vanilla", 6, 4010, "618b5b315318aca33fc17bc934dd8655b0dedc091a9676c026e08739071fda33",
		"349510d464a7e500d7d303761940b8660aeeffeb9ff090da31d9bc9e8d8e27bb"},
	{"jellyfish", 5, 5288, "5d790409505643e38a0df6aca15dc1077a3712f71bd2722dab3dd52f2a353a7d",
		"e265f828302a40051de5c0351faf9be449e858d856fd1c64b2d7e1584731ef51"},
}

// goldenVKs pins the verifying key of each goldenProofs circuit, in the
// same order: the size and sha256 of Index.MarshalBinary.
var goldenVKs = []struct {
	size int
	sha  string
}{
	{425, "11597eebdf766bb0e257fefb86a6c84c0232516dfe861d3e843001820fdf3f16"},
	{425, "80ea93a6c594bfad20c54640274836cd38cfe440a7d9c88969ad06a0aa1c0bea"},
	{947, "ccb47926fce80e5d062fb7ea70060b4babe4bf9373221d8654b120099582c004"},
}

// contentDigest hashes what a proof says rather than how it is written:
// every scalar and every point (as uncompressed x‖y) in wire order.
func contentDigest(p *Proof) string {
	h := sha256.New()
	points := func(ps ...curve.G1Affine) {
		for i := range ps {
			x, y := ps[i].X.Bytes(), ps[i].Y.Bytes()
			h.Write(x[:])
			h.Write(y[:])
		}
	}
	scalars := func(ss ...ff.Element) {
		for i := range ss {
			b := ss[i].Bytes()
			h.Write(b[:])
		}
	}
	sc := func(s *sumcheck.Proof) {
		for _, r := range s.RoundEvals {
			scalars(r...)
		}
	}
	open := func(o *OpenProof) {
		sc(o.Sumcheck)
		scalars(o.PolyEvals...)
		points(o.PCS.Qs...)
	}
	for i := range p.WireComms {
		points(p.WireComms[i].Point)
	}
	points(p.VComm.Point)
	sc(p.GateZC.Inner)
	scalars(p.GateEvals...)
	sc(p.PermZC.Inner)
	scalars(p.VEvals[:]...)
	scalars(p.WirePermEvals...)
	scalars(p.SigmaPermEvals...)
	open(p.OpenMain)
	open(p.OpenV)
	return hex.EncodeToString(h.Sum(nil))
}

// checkGolden holds a proof of golden case g to its pins: the wire size and
// sha256, the content digest, and the content digest again after a decode,
// so the decoder recovers exactly what the prover wrote.
func checkGolden(t *testing.T, g goldenProof, proof *Proof) {
	t.Helper()
	b, err := proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != g.size {
		t.Fatalf("proof size %d, want %d", len(b), g.size)
	}
	sum := sha256.Sum256(b)
	if got := hex.EncodeToString(sum[:]); got != g.sha {
		t.Fatalf("proof bytes diverged from the golden:\n got %s\nwant %s", got, g.sha)
	}
	if got := contentDigest(proof); got != g.content {
		t.Fatalf("proof content diverged from the golden:\n got %s\nwant %s", got, g.content)
	}
	var back Proof
	if err := back.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if got := contentDigest(&back); got != g.content {
		t.Fatalf("decoded proof content diverged from the golden:\n got %s\nwant %s", got, g.content)
	}
}

func TestProofBytesGoldenPR4(t *testing.T) {
	for _, g := range goldenProofs {
		t.Run(fmt.Sprintf("%s/nv=%d", g.name, g.numVars), func(t *testing.T) {
			var c = buildVanillaCircuit(t, 3, g.numVars)
			if g.name == "jellyfish" {
				c = buildJellyfishCircuit(t, g.numVars)
			}
			idx, err := PreprocessWorkers(testSRS, c, 1)
			if err != nil {
				t.Fatal(err)
			}
			proof, err := Prove(context.Background(), testSRS, idx, c, Config{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, g, proof)
		})
	}
}

// TestVerifyingKeyBytesGolden holds each golden circuit's verifying key to
// its pins, and a decoded key to the same bytes.
func TestVerifyingKeyBytesGolden(t *testing.T) {
	for i, g := range goldenProofs {
		t.Run(fmt.Sprintf("%s/nv=%d", g.name, g.numVars), func(t *testing.T) {
			var c = buildVanillaCircuit(t, 3, g.numVars)
			if g.name == "jellyfish" {
				c = buildJellyfishCircuit(t, g.numVars)
			}
			idx, err := PreprocessWorkers(testSRS, c, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := idx.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			if got := hex.EncodeToString(sum[:]); len(b) != goldenVKs[i].size || got != goldenVKs[i].sha {
				t.Fatalf("verifying key diverged from the golden:\n got %d B %s\nwant %d B %s", len(b), got, goldenVKs[i].size, goldenVKs[i].sha)
			}
			back, err := UnmarshalVerifyingKey(b)
			if err != nil {
				t.Fatal(err)
			}
			again, err := back.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, b) {
				t.Fatal("decoded verifying key re-encodes to different bytes")
			}
		})
	}
}
