// Package fixture holds the one sanctioned recover site (loaded as the
// service layer). It produces no findings.
package fixture

import "context"

func work() error { return nil }

// runGuarded is the designated job boundary: recover here is the whole
// design.
func runGuarded() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = context.Canceled
		}
	}()
	return work()
}
