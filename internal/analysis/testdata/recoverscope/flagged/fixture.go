// Package fixture contains every recoverscope violation class. The test
// loads it AS the service layer, so the findings below are exactly the
// ones that survive even where runGuarded itself would be legal.
package fixture

import (
	"context"

	"zkphire/internal/parallel"
)

var budget = parallel.NewBudget(4)

func work() {}

// swallow recovers outside the job boundary: the panic dies here and the
// boundary's lease/metric accounting never runs.
func swallow() {
	defer func() {
		if r := recover(); r != nil { // want "outside the designated job boundary"
			_ = r
		}
	}()
	work()
}

// runGuardedly is NOT runGuarded — near-miss names don't get the
// exemption.
func runGuardedly() {
	defer func() {
		_ = recover() // want "outside the designated job boundary"
	}()
}

// neverReleased leaks on every path.
func neverReleased(ctx context.Context) error {
	lease, err := budget.Acquire(ctx, 2) // want "never released"
	if err != nil {
		return err
	}
	_ = lease.Workers()
	return nil
}

// inlineRelease releases on the happy path only: a panic in work()
// leaks the lease.
func inlineRelease(ctx context.Context) error {
	lease, err := budget.Acquire(ctx, 2) // want "released without defer"
	if err != nil {
		return err
	}
	work()
	lease.Release()
	return nil
}

// discarded can never be released at all.
func discarded() {
	_, _ = budget.Acquire(context.Background(), 1) // want "assigned to _"
}

// tryDiscarded: same for the non-blocking constructor.
func tryDiscarded() {
	_ = budget.TryAcquire(1) // want "assigned to _"
}
