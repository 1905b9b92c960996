package rcu

import "sync"

// Reclaimer provides asynchronous grace-period-deferred callbacks — the
// analog of the kernel's call_rcu/rcu_barrier, and the "efficient memory
// reclamation" integration named as future work in §7 of the Citrus
// paper. An updater that has just unpublished an object hands the cleanup
// to Defer instead of blocking in Synchronize itself; a background
// goroutine takes everything queued, waits one grace period for it, and
// runs it.
//
// In Go the garbage collector frees unreachable memory on its own, so
// Defer is for the cases the GC cannot see: returning buffers to pools,
// closing descriptors held by readers, decrementing external reference
// counts, or recycling objects in place (see examples/rcucache for why
// recycling without a grace period is unsound).
//
// The queue is unbounded. A stalled reader blocks every grace period,
// so callbacks pile up behind it; what that costs shows as grace-period
// age (Stats.OldestSyncAgeNanos and the stall detector on the flavor),
// not here.
//
// A Reclaimer owns one background goroutine; Close drains all pending
// callbacks (waiting the required grace period) and stops it.
type Reclaimer struct {
	flavor Flavor

	// mu guards pending and closed. TryDefer decides under it and Close
	// sets closed under it, so every callback is either queued before
	// the final drain takes the queue or refused.
	mu      sync.Mutex
	pending []func()
	closed  bool

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

// A ReclaimerOption once configured a Reclaimer's queue bounds.
//
// Deprecated: the queue has no bounds to configure; NewReclaimer
// ignores its options.
type ReclaimerOption func(*Reclaimer)

// WithHighWatermark configures nothing.
//
// Deprecated: every drain takes the whole queue, so there is no
// expedited drain for a watermark to arm.
func WithHighWatermark(int) ReclaimerOption { return func(*Reclaimer) {} }

// WithHardCap configures nothing.
//
// Deprecated: the queue is unbounded and never drops a callback.
func WithHardCap(int) ReclaimerOption { return func(*Reclaimer) {} }

// NewReclaimer starts a reclaimer on the given flavor. The options are
// ignored (see ReclaimerOption).
func NewReclaimer(flavor Flavor, _ ...ReclaimerOption) *Reclaimer {
	r := &Reclaimer{
		flavor: flavor,
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go r.loop()
	return r
}

// Defer schedules fn to run after all read-side critical sections that
// currently exist have completed. Callbacks run on the reclaimer's
// goroutine, in submission order. Defer never blocks on readers. It
// must not be called after Close (it panics, matching use-after-close
// of other resources); callers that legitimately race Close should use
// TryDefer instead.
func (r *Reclaimer) Defer(fn func()) {
	if !r.TryDefer(fn) {
		panic("rcu: Defer on closed Reclaimer")
	}
}

// TryDefer schedules fn like Defer, but reports false instead of
// panicking when the reclaimer is already closed. It is the right call
// on paths where not-deferring has a natural fallback — e.g. a tree
// delete retiring a node while the owner concurrently closes the
// reclaimer: the caller leaves the object to the garbage collector.
//
// The decision is made under the mutex Close takes: a true return
// guarantees fn runs after its grace period — if Close is already
// underway, the final drain still sees fn — and a false return
// guarantees it never runs.
func (r *Reclaimer) TryDefer(fn func()) bool {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return false
	}
	r.pending = append(r.pending, fn)
	r.mu.Unlock()
	select { // wake the drain; a pending wakeup coalesces
	case r.wake <- struct{}{}:
	default:
	}
	return true
}

// Barrier blocks until every callback deferred before the call has run
// (the analog of rcu_barrier). It panics on a closed reclaimer. It must
// not be called from inside a read-side critical section or from a
// callback.
func (r *Reclaimer) Barrier() {
	ch := make(chan struct{})
	if !r.TryDefer(func() { close(ch) }) {
		panic("rcu: Barrier on closed Reclaimer")
	}
	<-ch
}

// Close drains all pending callbacks — waiting the grace period they
// require — and stops the background goroutine. Close is idempotent.
func (r *Reclaimer) Close() {
	r.mu.Lock()
	if !r.closed {
		r.closed = true
		close(r.stop)
	}
	r.mu.Unlock()
	<-r.done
}

// loop is the reclaimer goroutine: take the queue, synchronize, run,
// repeat. After Close nothing more can be queued, so one final drain
// runs everything deferred before it.
func (r *Reclaimer) loop() {
	defer close(r.done)
	for {
		select {
		case <-r.wake:
			r.drain()
		case <-r.stop:
			r.drain()
			return
		}
	}
}

// drain takes the whole queue, waits one grace period, and runs it. One
// grace period covers every callback taken: each was deferred before
// this point, so every reader that could still see the retired objects
// is pre-existing here.
func (r *Reclaimer) drain() {
	r.mu.Lock()
	batch := r.pending
	r.pending = nil
	r.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	r.flavor.Synchronize()
	for _, fn := range batch {
		fn()
	}
}
