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
// every point's uncompressed x‖y, in wire order (contentDigest). It pins
// the proofs these circuits have produced since commit a014b1b and moves
// only when the protocol does — a new challenge, scalar or point. size
// and sha pin the wire bytes, and move also when the encoding does.
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
	{"vanilla", 4, 3554, "68b13b447524c70b297d0d03d7dfcc2af8cc3ad8550efd513e7bcd93bb79bc78",
		"f38e3e8973ea0bbd8b23ddcc1d0ede550857b97d5ad89307178b3a095c830618"},
	{"vanilla", 6, 4586, "36615b99f2e22e73c7d59e08d852dfbcdc2a45f48a892925b18e439d30842b2e",
		"a3c931192854c3014d0098e5c3add19e3e0720549cfb0a3967d3e6aef48a009d"},
	{"jellyfish", 5, 5800, "40c61a18af423d458946157b58735305d8e1332ffe4a919eb4e650b8289416c6",
		"e3a646ef2c219bc318c897a1bddb3fc30ae133cca34f2c283cf5eec6f692d2f8"},
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
		scalars(s.Claim)
		for _, r := range s.RoundEvals {
			scalars(r...)
		}
	}
	open := func(o *OpenProof) {
		sc(o.Sumcheck)
		scalars(o.PolyEvals...)
		scalars(o.Opened)
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
