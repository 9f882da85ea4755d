package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"testing"
)

// goldenStdout pins the sha256 of each experiment's stdout at its default
// flags. Every experiment is deterministic — the analytic models, the
// design-space sweeps and table9's seeded proof alike — so a digest moves
// only when a model number or a printed row does.
var goldenStdout = map[string]string{
	"table1":    "3a5a8225edb95c886f705c08d54f9494c6a140c3c87e1617ba06931bb9b3c112",
	"fig6":      "b07dc19f37f625e7efa008db837f4b3e022cfff649c4cda550095f076e160d6e",
	"fig7":      "e23134fd01e554e21d153e38ca580d036a87badb0dc92616bc1f563ce3b9d0d4",
	"fig8":      "fb8f5febe952d886a93fcfd70cf65f3f5bf8cc97aa47f7c1e7c0564a77d9de2d",
	"fig9":      "d9159fe4e54a461963599c70259bd5e2b4836304cbbf0f3414d410ef21cc0301",
	"table2":    "03e1323f09b39980dd69ab28ab8a94e5908e7fa201dee0b1d64a6a7d1fa82c78",
	"fig10":     "60510a66bfdbc8e5e176caa1d095c7442b4952af8ffcc7296e382c198ad3c522",
	"fig11":     "fd24ca68f78c6f5c2e828caa4e05bf6437a2ecf3837168fc199bdcb7f8325f81",
	"fig12":     "7f62d01d7994595619818892ab896da2cadfc118365dd80cd15050660203cd66",
	"fig13":     "6ec54e7e0aa7fc3be6e56c4e35f605c0a51c5bc59cce47bfc044101c04f0f23c",
	"fig14":     "97f54be7dbeb21f1bdf52f4aa0cc727373932c7d2077a35213f127e20aad8397",
	"table5":    "fa4a376e8f7afdb747e02d9753fe95db4b9e9d50e780832e622d5cd56d410dfe",
	"table6":    "fa4c0fa4336ddad76fa7b3db34a559c3f5ccf6e0987bda0d64b94d23661b2ec7",
	"table7":    "90787324f06ccf3604fba25a207b7ecf25d85fb4bf2531367cd6630081d76d46",
	"table8":    "b6669ddd4684c30210120444d6fbe6331711106f0fb3230ba005ea04aeddb990",
	"table9":    "d171cd96e72eb7b72a404f10528398e5099bc0de704ca64ce9384e13c6260003",
	"ablations": "67bed933a29f215a63fea43b4fab66e8bfff889ec31b0efcfb4bb394519bf9d7",
}

func TestExperimentsGolden(t *testing.T) {
	for _, e := range experiments {
		want, ok := goldenStdout[e.name]
		if !ok {
			t.Errorf("%s: no golden digest", e.name)
			continue
		}
		if raceEnabled && (e.name == "fig10" || e.name == "fig11") {
			continue
		}
		got, err := stdoutDigest(e.run)
		if err != nil {
			t.Errorf("%s: %v", e.name, err)
			continue
		}
		if got != want {
			t.Errorf("%s: stdout sha256 = %s, want %s", e.name, got, want)
		}
	}
}

// stdoutDigest runs an experiment at its default flags and returns the
// sha256 of what it wrote to os.Stdout.
func stdoutDigest(run func([]string) error) (string, error) {
	r, w, err := os.Pipe()
	if err != nil {
		return "", err
	}
	h := sha256.New()
	done := make(chan error, 1)
	go func() {
		_, err := io.Copy(h, r)
		done <- err
	}()
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(nil)
	os.Stdout = stdout
	w.Close()
	copyErr := <-done
	r.Close()
	if runErr != nil {
		return "", runErr
	}
	if copyErr != nil {
		return "", copyErr
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
