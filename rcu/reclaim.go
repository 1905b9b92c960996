package rcu

import (
	"sync"
	"time"
)

// defaultDrainBatch bounds how many callbacks one grace period covers in
// the normal (non-expedited) drain. Bounding the batch keeps a slow
// callback from delaying the whole queue behind it and lets the loop
// notice Close between entries; raising it amortizes grace periods over
// more callbacks. Expedited and shutdown drains ignore the bound.
const defaultDrainBatch = 512

// defaultBackpressure is how long Defer/TryDefer block at the hard cap
// waiting for the drain to make room before dropping the callback.
const defaultBackpressure = time.Millisecond

// capPollInterval is how often a backpressured Defer re-checks the
// queue depth against the cap.
const capPollInterval = 50 * time.Microsecond

// Reclaimer provides asynchronous grace-period-deferred callbacks — the
// analog of the kernel's call_rcu/rcu_barrier, and the "efficient memory
// reclamation" integration named as future work in §7 of the Citrus
// paper. An updater that has just unpublished an object hands the cleanup
// to Defer instead of blocking in Synchronize itself; a background
// goroutine batches callbacks, waits one grace period per batch, and runs
// them.
//
// In Go the garbage collector frees unreachable memory on its own, so
// Defer is for the cases the GC cannot see: returning buffers to pools,
// closing descriptors held by readers, decrementing external reference
// counts, or recycling objects in place (see examples/rcucache for why
// recycling without a grace period is unsound).
//
// The queue can be bounded against callback flooding — the age-vs-memory
// failure mode where a stalled reader blocks every grace period while
// updaters keep retiring objects. WithHighWatermark arms an expedited
// drain when the queue grows past a soft threshold; WithHardCap bounds
// the queue absolutely: at the cap, Defer and TryDefer briefly block
// (WithBackpressure) waiting for the drain, then drop the callback —
// counted in Stats, never silently — leaving the object to the garbage
// collector. Both are off by default, preserving the unbounded
// queue-everything behavior.
//
// A Reclaimer owns one background goroutine; Close drains all pending
// callbacks (waiting the required grace periods) and stops it.
type Reclaimer struct {
	flavor Flavor

	// Configuration; immutable after NewReclaimer.
	high         int           // expedite threshold; 0 disables
	cap          int           // hard queue bound; 0 means unbounded
	drainBatch   int           // callbacks per grace period in normal drain
	backpressure time.Duration // blocking budget at the cap before dropping

	// mu guards the queue and ALL accounting below. The counters are
	// plain fields under the mutex the enqueue path already pays — not
	// atomics — so a bounded reclaimer costs retire-heavy workloads
	// nothing over the original unbounded one; Stats and QueueDepth
	// take the lock briefly instead. depth counts callbacks accepted
	// but not yet run (queued plus the batch in flight) and moves only
	// under mu, so the hard cap is never overshot. expedite is armed by
	// the enqueue that crosses the high watermark and cleared once the
	// drain gets back below it, making each crossing count one
	// expedited drain.
	mu       sync.Mutex
	pending  []pendingCB
	inflight time.Time // enqueue time of the in-flight batch's head; zero when none
	closed   bool
	depth    int64
	expedite bool

	deferred  int64
	executed  int64
	dropped   int64
	expedited int64
	gps       int64
	highWater int64

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
}

// pendingCB is one queued callback with its enqueue time, kept so the
// age of the backlog's head — how long the oldest retired object has
// been waiting for its grace period and callback — is observable
// (Stats.OldestAgeNanos, OldestAge). Age and depth together are the
// two axes of the RCU age-memory trade-off.
type pendingCB struct {
	fn func()
	at time.Time
}

// A ReclaimerOption configures a Reclaimer at construction; see
// WithHighWatermark, WithHardCap, WithDrainBatch and WithBackpressure.
type ReclaimerOption func(*Reclaimer)

// WithHighWatermark sets the queue depth at which the reclaimer switches
// to an expedited drain: the background goroutine stops batching and
// drains the whole queue — still one grace period per pass — until the
// depth falls back below n. Each upward crossing triggers (and counts)
// exactly one expedited drain. n <= 0 disables the watermark (the
// default).
func WithHighWatermark(n int) ReclaimerOption {
	return func(r *Reclaimer) {
		if n < 0 {
			n = 0
		}
		r.high = n
	}
}

// WithHardCap bounds the callback queue at n objects. An enqueue that
// finds the queue full blocks for the backpressure window (see
// WithBackpressure) waiting for the drain to make room; if the queue is
// still full the callback is dropped — Stats.Dropped is incremented,
// Defer returns normally and TryDefer returns false — and the retired
// object is left to the garbage collector. Dropping is safe for
// memory-only cleanup (poisoning a retired node); callbacks with
// external side effects (closing descriptors) should not share a capped
// reclaimer with floodable paths. n <= 0 means unbounded (the
// default). Barrier callbacks bypass the cap so Barrier cannot deadlock
// against it.
func WithHardCap(n int) ReclaimerOption {
	return func(r *Reclaimer) {
		if n < 0 {
			n = 0
		}
		r.cap = n
	}
}

// WithDrainBatch sets how many callbacks the normal drain runs per
// grace period (default 512). Smaller batches bound how long a slow
// callback can delay those behind it and make Close more responsive;
// larger batches amortize grace periods over more callbacks. Expedited
// and shutdown drains ignore the bound. n <= 0 restores the default.
func WithDrainBatch(n int) ReclaimerOption {
	return func(r *Reclaimer) {
		if n <= 0 {
			n = defaultDrainBatch
		}
		r.drainBatch = n
	}
}

// WithBackpressure sets how long an enqueue blocks at the hard cap
// waiting for room before dropping the callback (default 1ms). Zero
// or negative means drop immediately. Irrelevant without WithHardCap.
func WithBackpressure(d time.Duration) ReclaimerOption {
	return func(r *Reclaimer) {
		if d < 0 {
			d = 0
		}
		r.backpressure = d
	}
}

// NewReclaimer starts a reclaimer on the given flavor. With no options
// the queue is unbounded and callbacks drain in batches of 512 per
// grace period.
func NewReclaimer(flavor Flavor, opts ...ReclaimerOption) *Reclaimer {
	r := &Reclaimer{
		flavor:       flavor,
		drainBatch:   defaultDrainBatch,
		backpressure: defaultBackpressure,
		wake:         make(chan struct{}, 1),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	for _, opt := range opts {
		opt(r)
	}
	go r.loop()
	return r
}

// ReclaimerStats is a point-in-time snapshot of a Reclaimer's activity.
// QueueDepth is a gauge; everything else is cumulative.
type ReclaimerStats struct {
	// Deferred counts callbacks accepted by Defer/TryDefer/Barrier;
	// Executed counts callbacks that have run. Their difference is the
	// backlog (== QueueDepth).
	Deferred int64 `json:"deferred"`
	Executed int64 `json:"executed"`

	// Dropped counts callbacks rejected at the hard cap after the
	// backpressure window expired; the objects they guarded were left
	// to the garbage collector.
	Dropped int64 `json:"dropped"`

	// QueueDepth is the current number of accepted-but-not-run
	// callbacks (settled once per drained batch, so a batch in flight
	// counts until it completes); QueueHighWater the maximum depth ever
	// reached. With a
	// hard cap configured, Defer/TryDefer never grow the depth past the
	// cap; only Barrier callbacks, which bypass the cap to stay
	// deadlock-free, can push QueueHighWater beyond it.
	QueueDepth     int64 `json:"queue_depth"`
	QueueHighWater int64 `json:"queue_high_water"`

	// ExpeditedDrains counts upward crossings of the high watermark,
	// each of which switched the drain to expedited mode once.
	ExpeditedDrains int64 `json:"expedited_drains"`

	// GracePeriods counts Synchronize calls the drain has paid: how
	// many grace periods the batching amortized the backlog over.
	GracePeriods int64 `json:"grace_periods"`

	// OldestAgeNanos is a gauge: the age, in nanoseconds, of the oldest
	// accepted-but-not-run callback (including the batch in flight);
	// 0 with an empty queue. This is the "memory age" of the age-memory
	// trade-off: how stale the most patient retired object is. A
	// healthy reclaimer keeps it near one grace period; a stalled
	// reader shows as an age growing in step with QueueDepth, and the
	// watermark/hard-cap knobs (WithHighWatermark, WithHardCap) should
	// be tuned from exactly this pair of series.
	OldestAgeNanos int64 `json:"oldest_age_ns"`
}

// Stats reports the reclaimer's activity. Safe from any goroutine.
func (r *Reclaimer) Stats() ReclaimerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return ReclaimerStats{
		Deferred:        r.deferred,
		Executed:        r.executed,
		Dropped:         r.dropped,
		QueueDepth:      r.depth,
		QueueHighWater:  r.highWater,
		ExpeditedDrains: r.expedited,
		GracePeriods:    r.gps,
		OldestAgeNanos:  r.oldestAgeLocked(time.Now()).Nanoseconds(),
	}
}

// oldestAgeLocked computes the backlog head's age under mu. The batch
// in flight was enqueued before anything still queued, so its head
// timestamp wins when a drain is running.
func (r *Reclaimer) oldestAgeLocked(now time.Time) time.Duration {
	switch {
	case !r.inflight.IsZero():
		return now.Sub(r.inflight)
	case len(r.pending) > 0:
		return now.Sub(r.pending[0].at)
	}
	return 0
}

// OldestAge reports the age of the oldest accepted-but-not-run
// callback, 0 with an empty queue; see ReclaimerStats.OldestAgeNanos.
func (r *Reclaimer) OldestAge() time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.oldestAgeLocked(time.Now())
}

// QueueDepth reports the current number of accepted-but-not-run
// callbacks. The kvserver health check reads it to detect a growing
// backlog (a stalled reader blocking the drain).
func (r *Reclaimer) QueueDepth() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.depth
}

// deferStatus is the outcome of an enqueue attempt.
type deferStatus int

const (
	deferAccepted deferStatus = iota
	deferDropped              // hard cap, backpressure window expired
	deferClosed               // reclaimer already closed
)

// Defer schedules fn to run after all read-side critical sections that
// currently exist have completed. Callbacks run on the reclaimer's
// goroutine, in submission order. Defer never blocks on readers; with a
// hard cap configured it may block briefly at the cap and then drop fn
// (counted in Stats.Dropped — see WithHardCap). It must not be called
// after Close (it panics, matching use-after-close of other resources);
// callers that legitimately race Close should use TryDefer instead.
func (r *Reclaimer) Defer(fn func()) {
	if r.enqueue(fn, false) == deferClosed {
		panic("rcu: Defer on closed Reclaimer")
	}
}

// TryDefer schedules fn like Defer, but reports false instead of
// panicking when the reclaimer is already closed, and false when the
// hard cap dropped fn (Stats.Dropped distinguishes the two). It is the
// right call on paths where not-deferring has a natural fallback —
// e.g. a tree delete retiring a node while the owner concurrently
// closes the reclaimer, or a capped queue shedding under flood: the
// caller drops the object to the garbage collector.
//
// The decision is atomic with Close draining: a true return guarantees
// fn runs after its grace period — if Close is already underway, the
// final drain still sees fn — and a false return guarantees it never
// runs.
func (r *Reclaimer) TryDefer(fn func()) bool {
	return r.enqueue(fn, false) == deferAccepted
}

// enqueue appends fn to the queue, applying the hard cap unless
// bypassCap. The depth check, the append and all accounting happen
// under one lock acquisition and depth only moves under mu, so the cap
// is never overshot: QueueDepth <= cap always holds.
func (r *Reclaimer) enqueue(fn func(), bypassCap bool) deferStatus {
	waited := false
	for {
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return deferClosed
		}
		if r.cap == 0 || bypassCap || r.depth < int64(r.cap) {
			r.pending = append(r.pending, pendingCB{fn: fn, at: time.Now()})
			r.depth++
			r.deferred++
			if r.depth > r.highWater {
				r.highWater = r.depth
			}
			if r.high > 0 && r.depth >= int64(r.high) && !r.expedite {
				// Upward crossing of the high watermark: arm exactly one
				// expedited drain; the drain disarms once back below.
				r.expedite = true
				r.expedited++
			}
			r.mu.Unlock()
			r.kick()
			return deferAccepted
		}
		r.mu.Unlock()
		if waited || !r.waitBelowCap() {
			r.mu.Lock()
			if r.closed {
				// Close arrived during the backpressure wait: this is a
				// defer-after-close, not a cap drop — Defer must panic,
				// TryDefer must report closed, and the drop counter must
				// not move on a closed reclaimer.
				r.mu.Unlock()
				return deferClosed
			}
			r.dropped++
			r.mu.Unlock()
			return deferDropped
		}
		waited = true
	}
}

// waitBelowCap applies backpressure: it blocks, polling, until the
// queue depth falls below the cap, the backpressure window expires, or
// the reclaimer closes. It reports whether room appeared; on close it
// returns false immediately so the caller's closed re-check decides the
// outcome instead of the wait running out its full window.
func (r *Reclaimer) waitBelowCap() bool {
	if r.backpressure <= 0 {
		return false
	}
	r.kick() // make sure the drain is running while we wait on it
	deadline := time.Now().Add(r.backpressure)
	for {
		time.Sleep(capPollSleep(time.Until(deadline)))
		r.mu.Lock()
		room := r.depth < int64(r.cap)
		closed := r.closed
		r.mu.Unlock()
		if room {
			return true
		}
		if closed || !time.Now().Before(deadline) {
			return false
		}
	}
}

// capPollSleep bounds one backpressure poll's sleep: the usual poll
// interval, clamped to the window remaining so a sub-interval
// backpressure setting is not rounded up to a full 50µs sleep.
func capPollSleep(remaining time.Duration) time.Duration {
	if remaining < capPollInterval {
		return remaining
	}
	return capPollInterval
}

// kick wakes the drain loop; a pending wakeup coalesces.
func (r *Reclaimer) kick() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// Barrier blocks until every callback deferred before the call has run
// (the analog of rcu_barrier). The barrier callback bypasses the hard
// cap, so Barrier never deadlocks against a full queue; it panics on a
// closed reclaimer. It must not be called from inside a read-side
// critical section or from a callback.
func (r *Reclaimer) Barrier() {
	ch := make(chan struct{})
	if r.enqueue(func() { close(ch) }, true) == deferClosed {
		panic("rcu: Barrier on closed Reclaimer")
	}
	<-ch
}

// Close drains all pending callbacks — waiting the grace periods they
// require — and stops the background goroutine. Close is idempotent.
func (r *Reclaimer) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		<-r.done
		return
	}
	r.closed = true
	r.mu.Unlock()
	close(r.stop)
	<-r.done
}

// loop is the reclaimer goroutine: batch, synchronize, run, repeat.
func (r *Reclaimer) loop() {
	defer close(r.done)
	for {
		select {
		case <-r.wake:
			// Drain everything available, one bounded batch per grace
			// period, breaking out promptly when Close arrives (the
			// stop case below finishes the job).
			for r.drainOnce(false) {
				select {
				case <-r.stop:
				default:
					continue
				}
				break
			}
		case <-r.stop:
			// Final drain: anything deferred before Close must still run
			// after a proper grace period.
			for r.drainOnce(true) {
			}
			return
		}
	}
}

// drainOnce takes one batch, waits one grace period, runs the batch. It
// reports whether it ran (or requeued) anything. In the normal drain
// the batch is bounded by drainBatch and stop is re-checked between
// callbacks — a Close arriving mid-batch pushes the remainder back for
// the final drain; expedited mode (high watermark crossed) and the
// final drain take the whole queue.
func (r *Reclaimer) drainOnce(final bool) bool {
	r.mu.Lock()
	n := len(r.pending)
	if n == 0 {
		r.mu.Unlock()
		return false
	}
	if !final && !r.expedite && n > r.drainBatch {
		n = r.drainBatch
	}
	batch := r.pending[:n:n]
	if n == len(r.pending) {
		r.pending = nil
	} else {
		r.pending = r.pending[n:]
	}
	r.inflight = batch[0].at // the backlog head's age keeps aging while in flight
	r.mu.Unlock()
	// One grace period covers the whole batch: every callback was
	// deferred before this point, so every reader that could still see
	// the retired objects is pre-existing here.
	r.flavor.Synchronize()
	ran := n
	for i, cb := range batch {
		// Re-check stop every few entries (not every one: the channel
		// poll is cheap but not free, and callbacks are often tiny).
		if !final && i&0x3f == 0 && r.stopped() {
			// Close arrived mid-batch: hand the rest to the final
			// drain (their grace period is re-paid there, which is
			// harmless) so slow callbacks cannot stall shutdown
			// behind the whole batch.
			r.requeue(batch[i:])
			ran = i
			break
		}
		cb.fn()
		batch[i].fn = nil // release the closure before the next GP
	}
	r.mu.Lock()
	r.inflight = time.Time{}
	r.gps++
	r.executed += int64(ran)
	r.depth -= int64(ran)
	if r.expedite && r.depth < int64(r.high) {
		// Back below the watermark: disarm, so the next crossing counts
		// (and expedites) again.
		r.expedite = false
	}
	r.mu.Unlock()
	return true
}

// stopped reports whether Close has been called, without blocking.
func (r *Reclaimer) stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

// requeue pushes not-yet-run callbacks back to the front of the queue,
// preserving submission order, for the final drain to run.
func (r *Reclaimer) requeue(rest []pendingCB) {
	r.mu.Lock()
	r.pending = append(rest[:len(rest):len(rest)], r.pending...)
	r.mu.Unlock()
}
