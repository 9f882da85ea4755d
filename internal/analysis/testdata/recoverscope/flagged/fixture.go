// Package fixture holds the lease and recover violations of the release
// rule. The test loads it AS the service layer, so the findings below
// are exactly the ones that survive even where runGuarded itself would
// be legal.
package fixture

import (
	"context"

	"zkphire/internal/parallel"
)

var budget = parallel.NewBudget(4)

func work(int) {}

// swallow recovers outside the job boundary: the panic dies here and the
// boundary's lease/metric accounting never runs (M6).
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

// inlineRelease releases on the happy path only: a panic in work()
// leaks the lease (M4).
func inlineRelease(ctx context.Context) error {
	lease, err := budget.Acquire(ctx, 2) // want "lease from Budget.Acquire is neither released by a deferred Lease.Release"
	if err != nil {
		return err
	}
	work(lease.Workers())
	lease.Release()
	return nil
}

// discarded can never be released at all (M5).
func discarded(ctx context.Context) error {
	_, err := budget.Acquire(ctx, 1) // want "result of Budget.Acquire is discarded"
	return err
}

// tryDiscarded: same for the non-blocking constructor.
func tryDiscarded() {
	_ = budget.TryAcquire(1) // want "result of Budget.TryAcquire is discarded"
}

func runWith(lease *parallel.Lease) {
	defer lease.Release()
	work(lease.Workers())
}

// passedOn hands the lease to a callee: acquire and deferred release must
// sit in one function, so the callee should acquire it itself.
func passedOn(ctx context.Context) error {
	lease, err := budget.Acquire(ctx, 2) // want "lease from Budget.Acquire is neither released"
	if err != nil {
		return err
	}
	runWith(lease)
	return nil
}
