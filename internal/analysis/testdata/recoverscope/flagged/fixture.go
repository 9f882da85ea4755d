// Package fixture holds the recover violations of the release rule. The
// test loads it AS the service layer, so the findings below are exactly
// the ones that survive even where runGuarded itself would be legal.
package fixture

func work(int) {}

// swallow recovers outside the job boundary: the panic dies here and the
// boundary's slot/metric accounting never runs (M6).
func swallow() {
	defer func() {
		if r := recover(); r != nil { // want "outside the designated job boundary"
			_ = r
		}
	}()
	work(1)
}

// runGuardedly is NOT runGuarded — near-miss names don't get the
// exemption.
func runGuardedly() {
	defer func() {
		_ = recover() // want "outside the designated job boundary"
	}()
}
