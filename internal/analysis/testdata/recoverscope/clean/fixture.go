// Package fixture holds every lease form the release rule accepts and
// the one sanctioned recover site (loaded as the service layer). None of
// these produce findings.
package fixture

import (
	"context"

	"zkphire/internal/parallel"
)

var budget = parallel.NewBudget(4)

func work(int) error { return nil }

// runGuarded is the designated job boundary: it acquires the lease,
// defers its release, then recovers — recover here is the whole design.
func runGuarded(ctx context.Context) (err error) {
	lease, err := budget.Acquire(ctx, 2)
	if err != nil {
		return err
	}
	defer lease.Release()
	defer func() {
		if r := recover(); r != nil {
			err = context.Canceled
		}
	}()
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
