package pcs

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"zkphire/internal/ff"
)

// levelDigests hashes each SRS level's affine points in order: an
// infinity byte, then x and y big-endian.
func levelDigests(srs *SRS) []string {
	out := make([]string, len(srs.Levels))
	for k, level := range srs.Levels {
		h := sha256.New()
		for i := range level {
			p := &level[i]
			if p.Infinity {
				h.Write([]byte{1})
				continue
			}
			x, y := p.X.Bytes(), p.Y.Bytes()
			h.Write([]byte{0})
			h.Write(x[:])
			h.Write(y[:])
		}
		out[k] = hex.EncodeToString(h.Sum(nil))[:16]
	}
	return out
}

// edgeTau is a 6-coordinate τ with 0 and 1 entries: half the top level is
// the identity, and so are parts of the lower levels.
func edgeTau() []ff.Element {
	rng := ff.NewRand(77)
	tau := rng.Elements(6)
	tau[0].SetZero()
	tau[1].SetOne()
	tau[3].SetOne()
	tau[4].SetZero()
	return tau
}

// TestSetupLevelPins pins every level of a few SRSs to digests captured
// from the per-level fixed-base setup, so a faster setup must build the
// same points. The edge case puts the identity into the top level, so
// deriving a level meets infinity operands.
func TestSetupLevelPins(t *testing.T) {
	cases := []struct {
		name string
		srs  *SRS
		want []string
	}{
		{"seeded/1", SetupDeterministic(1, 101), []string{"ff10892233a6ef42", "5969e84bf27d3e3d"}},
		{"seeded/3", SetupDeterministic(3, 103), []string{"ff10892233a6ef42", "da98fba679443f1d", "99634f6d39531e75", "9cbf0ed7c6beebdd"}},
		{"seeded/8", SetupDeterministic(8, 108), []string{"ff10892233a6ef42", "1524353249a3bc5e", "8a1275547cf01b2d",
			"006d48a5973349b9", "7b726f31bac6c0c5", "53e92253b13d7969", "09d6261206677e3d", "d8efed806dc2ec0c", "00a98d06c900ef8a"}},
		{"seeded/12", SetupDeterministic(12, 112), []string{"ff10892233a6ef42", "b5f6e0836d2ce62b", "a8a62c2fe45d55cc",
			"7f5d0936bbf45b5e", "cca9fa4c33fe3a97", "f7a207c344694028", "51729930cb72371f", "f1b3a76765b16614",
			"30ff5ff7567c7ebf", "f67e62cf2e2de32d", "8193b19812f75572", "22bb610d6c003fed", "123125c4c6fa738b"}},
		{"edge", setupWithTau(6, edgeTau()), []string{"ff10892233a6ef42", "de8e50188c99172e", "c739c945dcf7fc5c",
			"85e6768910878bf4", "1941e5cf04ca7c3a", "9cb8ff2a1cbd596e", "05e9bc1ee4e4a197"}},
	}
	for _, tc := range cases {
		got := levelDigests(tc.srs)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d levels, want %d", tc.name, len(got), len(tc.want))
		}
		for k := range got {
			if got[k] != tc.want[k] {
				t.Errorf("%s: level %d digest %s, want %s", tc.name, k, got[k], tc.want[k])
			}
		}
	}
	if !cases[len(cases)-1].srs.Levels[6][1].Infinity {
		t.Fatal("edge τ left no identity in the top level")
	}
}
