package rcu

import (
	"context"
	"errors"
	"fmt"
)

// Cancellable grace-period waiting. Synchronize is unbounded by design:
// it returns only when every pre-existing reader has left its critical
// section, however long that takes. SynchronizeCtx bounds the *caller's
// wait* without weakening the property: on cancellation the caller gets
// its goroutine back immediately, while the grace period itself keeps
// running in the background until it genuinely completes — nothing is
// ever reclaimed early.

// ErrGracePeriodTimeout reports that a context-bounded grace-period
// wait (SynchronizeCtx, SynchronizeContext, core's DeleteCtx) was
// abandoned because its context was cancelled or its deadline expired
// before the grace period completed. Match it with errors.Is; the
// returned error also matches the context's own error
// (context.DeadlineExceeded or context.Canceled).
var ErrGracePeriodTimeout = errors.New("rcu: grace period did not complete before the context was done")

// gpTimeoutError carries the context cause alongside
// ErrGracePeriodTimeout, so errors.Is matches both.
type gpTimeoutError struct{ cause error }

func (e *gpTimeoutError) Error() string {
	return fmt.Sprintf("rcu: grace period did not complete before the context was done: %v", e.cause)
}

func (e *gpTimeoutError) Unwrap() []error { return []error{ErrGracePeriodTimeout, e.cause} }

// GracePeriodTimeout wraps a context error as a grace-period timeout:
// the result matches both ErrGracePeriodTimeout and cause under
// errors.Is. Callers that run their own select against
// BeginSynchronize use it to report abandonment with the standard type.
func GracePeriodTimeout(cause error) error { return &gpTimeoutError{cause: cause} }

// A ContextSynchronizer is a flavor whose grace-period wait can be
// bounded by a context. Domain, ClassicDomain and EpochDomain implement
// it; SynchronizeContext type-asserts against it and falls back to a
// generic wrapper for flavors that do not.
type ContextSynchronizer interface {
	// SynchronizeCtx waits like Flavor.Synchronize but returns early
	// with a non-nil error when ctx is done first. Early return
	// abandons only the caller's wait: the grace period continues in
	// the background, and nothing that was deferred on it runs before
	// it truly completes.
	SynchronizeCtx(ctx context.Context) error
}

var (
	_ ContextSynchronizer = (*Domain)(nil)
	_ ContextSynchronizer = (*ClassicDomain)(nil)
	_ ContextSynchronizer = (*EpochDomain)(nil)
)

// BeginSynchronize starts one grace period on f in a background
// goroutine and returns a channel that is closed when it completes. It
// is the building block for callers that must keep working (or give up
// and hand cleanup to someone else) while the grace period runs —
// core's DeleteCtx finishes a two-child delete's unlink from exactly
// this channel after its caller's deadline has expired.
//
// The goroutine is not cancellable (a grace period either completes or
// the blocking reader never leaves, in which case it parks in the
// flavor's sleep-phase wait loop at negligible CPU cost); it exits as
// soon as the grace period completes.
func BeginSynchronize(f Flavor) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		f.Synchronize()
		close(done)
	}()
	return done
}

// SynchronizeContext waits for a grace period on f, honoring ctx: it
// returns nil once every read-side critical section that existed at the
// call has completed, or a non-nil error — matching both
// ErrGracePeriodTimeout and ctx.Err() under errors.Is — when ctx is
// done first. Flavors implementing ContextSynchronizer (Domain,
// ClassicDomain, EpochDomain) handle it natively with their own
// accounting; any other flavor is wrapped via BeginSynchronize.
func SynchronizeContext(ctx context.Context, f Flavor) error {
	if ctx.Done() == nil {
		f.Synchronize()
		return nil
	}
	if cs, ok := f.(ContextSynchronizer); ok {
		return cs.SynchronizeCtx(ctx)
	}
	if err := ctx.Err(); err != nil {
		return GracePeriodTimeout(err)
	}
	select {
	case <-BeginSynchronize(f):
		return nil
	case <-ctx.Done():
		return GracePeriodTimeout(ctx.Err())
	}
}
