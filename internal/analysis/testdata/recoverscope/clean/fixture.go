// Package fixture contains every blessed recoverscope pattern: the one
// sanctioned recover site (loaded as the service layer), deferred
// releases, and the escape shapes where the lease's ownership provably
// moves. None of these produce findings.
package fixture

import (
	"context"

	"zkphire/internal/parallel"
)

var budget = parallel.NewBudget(4)

func work(int) error { return nil }

// runGuarded is the designated job boundary: recover here is the whole
// design.
func runGuarded(lease *parallel.Lease) (err error) {
	defer lease.Release()
	defer func() {
		if r := recover(); r != nil {
			_ = r
			err = context.Canceled
		}
	}()
	return work(lease.Workers())
}

// deferred is the canonical shape.
func deferred(ctx context.Context) error {
	lease, err := budget.Acquire(ctx, 2)
	if err != nil {
		return err
	}
	defer lease.Release()
	return work(lease.Workers())
}

// deferredClosure releases inside a deferred literal — as panic-safe as
// the direct form.
func deferredClosure(ctx context.Context) error {
	lease, err := budget.Acquire(ctx, 2)
	if err != nil {
		return err
	}
	defer func() {
		lease.Release()
	}()
	return work(lease.Workers())
}

// tryDeferred: the nil check on TryAcquire is a neutral read.
func tryDeferred() error {
	lease := budget.TryAcquire(1)
	if lease == nil {
		return context.DeadlineExceeded
	}
	defer lease.Release()
	return work(lease.Workers())
}

// escapesAsValue hands the release duty to the caller as a method value.
func escapesAsValue(ctx context.Context) (int, func(), error) {
	lease, err := budget.Acquire(ctx, 4)
	if err != nil {
		return 0, nil, err
	}
	return lease.Workers(), lease.Release, nil
}

// escapesToCall passes the lease to a callee that now owns it.
func escapesToCall(ctx context.Context) error {
	lease, err := budget.Acquire(ctx, 2)
	if err != nil {
		return err
	}
	return runGuarded(lease)
}

// escapesByReturn returns the lease itself.
func escapesByReturn(ctx context.Context) (*parallel.Lease, error) {
	lease, err := budget.Acquire(ctx, 1)
	if err != nil {
		return nil, err
	}
	return lease, nil
}

// acquiringLiteral: the scope rule anchors to the innermost function, so
// a helper literal with its own defer is clean.
func acquiringLiteral(ctx context.Context) error {
	withLease := func(fn func(int) error) error {
		lease, err := budget.Acquire(ctx, 2)
		if err != nil {
			return err
		}
		defer lease.Release()
		return fn(lease.Workers())
	}
	return withLease(work)
}
