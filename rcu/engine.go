package rcu

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/go-citrus/citrus/citrustrace"
	"github.com/go-citrus/citrus/internal/schedpoint"
)

// The grace-period engine. The three flavors differ in their read side
// and in how one grace period waits out pre-existing readers; everything
// else Synchronize needs lives here, once: the copy-on-write reader
// registry, the gp_seq combining loop, the waiter, and the per-call
// bookkeeping behind Stats, tracing and stall reports. Each flavor
// embeds an engine and plugs in its own wait step.

// cacheLinePad is the padding unit used to keep each reader's state word on
// its own cache line. 128 bytes covers adjacent-line prefetchers on x86.
const cacheLinePad = 128

// spinsBeforeYield is how many times a waiter re-reads what it waits on
// before yielding the processor. Grace periods are usually short, so a few
// busy reads avoid a scheduler round trip; past that, spinning only steals
// cycles from the reader being waited on.
const spinsBeforeYield = 64

// yieldsBeforeSleep is how many Gosched rounds a waiter takes after the
// spin budget before it starts sleeping. A reader that has not finished
// after this many yields is almost certainly descheduled (or genuinely
// long-running), and yielding forever against it burns a full core — the
// wait-loop bug this bound fixes. Sleeping instead costs at most one
// sleep quantum of added grace-period latency.
const yieldsBeforeSleep = 128

// Waiter sleeps escalate from minWaiterSleep, doubling per sleep, to
// maxWaiterSleep. The cap bounds how stale a waiter's view of the world
// can get (a completed grace period is noticed within one quantum);
// raising it trades grace-period age for less wakeup churn — the
// age/memory trade-off knob of the combining literature, set here to
// favor promptness.
const (
	minWaiterSleep = 2 * time.Microsecond
	maxWaiterSleep = 100 * time.Microsecond
)

// Grace-period sequence encoding (the kernel's rcu_seq idea): bit 0 is
// "a grace period is in flight", and the value advances by gpSeqStride
// per completed grace period. A caller that needs a grace period
// snapshots the sequence it must reach (seqSnap) and is done once the
// sequence passes it (seqDone) — no matter who drove it there.
const (
	gpSeqStateMask = 1
	gpSeqStride    = 2
)

// seqSnap returns the sequence value at which a full grace period will
// have elapsed for a caller observing s now (rcu_seq_snap): one full
// stride past the current value, rounded past any in-flight grace
// period — whose reader snapshot may predate this caller, so it cannot
// be trusted to cover the caller's pre-existing readers.
func seqSnap(s uint64) uint64 {
	return (s + 2*gpSeqStateMask + 1) &^ uint64(gpSeqStateMask)
}

// seqDone reports whether the sequence has reached target (rcu_seq_done).
func seqDone(s, target uint64) bool { return s >= target }

// readerBase is the identity every flavor's reader handle carries.
type readerBase struct {
	id   uint64
	site string // registration call site; "" unless site capture was on
}

// ID reports the handle's domain-unique reader id, stable for the
// handle's lifetime. Tracing uses it to attribute grace-period waits to
// specific readers (citrustrace.EvReaderWait).
func (r *readerBase) ID() uint64 { return r.id }

// Site reports the handle's registration call site, "" unless the
// domain's SetSiteCapture (or Domain.SetLeakDetection) was enabled when
// the handle was registered.
func (r *readerBase) Site() string { return r.site }

// A registrant is a flavor's reader handle as the engine sees it.
type registrant interface {
	comparable
	ID() uint64
	Site() string
	active() bool // inside a read-side critical section right now
}

// engine is the grace-period machinery every flavor embeds; see the
// comment at the top of this file. Flavors get SetTracer,
// SetStallTimeout, SetStallHandler, SetSiteCapture, Stats and Readers
// from it. The zero value is ready to use.
type engine[H registrant] struct {
	regMu   sync.Mutex // serializes registry changes (copy-on-write)
	readers atomic.Pointer[[]H]
	nextID  atomic.Uint64 // reader handle ids, for trace attribution

	// gpSeq is the shared grace-period sequence: bit 0 set while a
	// leader runs its grace period, value advancing by gpSeqStride per
	// completed grace period. See seqSnap/seqDone.
	gpSeq atomic.Uint64

	// nocombine disables grace-period combining: every Synchronize runs
	// its own grace period, the pre-combining behavior; for ablation
	// benchmarks (see Domain.SetCombining).
	nocombine atomic.Bool

	// tracer, when set, receives one grace-period span per Synchronize
	// with a per-reader wait breakdown. Off by default; with no tracer
	// the synchronize path pays one atomic load and a predictable
	// branch, and the read side is untouched either way.
	tracer atomic.Pointer[citrustrace.SyncTracer]

	// stall is the stall-detection configuration (see stall.go); off by
	// default and free for the hot paths while off.
	stall stallControl

	// stats accumulates grace-period accounting. Only Register and
	// Synchronize write it; the read-side primitives never touch it.
	stats syncStats
}

// enroll draws a new reader identity: a domain-unique id and, while site
// capture is on or force is set, the registration call site.
func (e *engine[H]) enroll(force bool) readerBase {
	b := readerBase{id: e.nextID.Add(1)}
	if force || e.stall.capture.Load() {
		b.site = registrationSite()
	}
	return b
}

// add publishes h in the reader registry.
func (e *engine[H]) add(h H) {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	old := e.registered()
	rs := make([]H, len(old), len(old)+1)
	copy(rs, old)
	rs = append(rs, h)
	e.readers.Store(&rs)
	e.stats.noteReaders(len(rs))
}

// remove withdraws h from the reader registry.
func (e *engine[H]) remove(h H) {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	old := e.registered()
	rs := make([]H, 0, len(old))
	for _, r := range old {
		if r != h {
			rs = append(rs, r)
		}
	}
	e.readers.Store(&rs)
}

// registered returns the current reader registry, which is never
// modified in place, so scans need no lock.
func (e *engine[H]) registered() []H {
	if rsp := e.readers.Load(); rsp != nil {
		return *rsp
	}
	return nil
}

// activeReaders lists every reader now inside a read-side critical
// section: a follower's stall report, since only the leader knows which
// of them its grace period actually waits for (a superset of the true
// blockers).
func (e *engine[H]) activeReaders() []StalledReader {
	rs := e.registered()
	return stalled(rs, 0, func(i int) bool { return rs[i].active() })
}

// combine runs call c of a combining flavor through gp_seq combining
// (Linux Tree RCU's gp_seq): each call snapshots the sequence it needs,
// one caller is elected to lead and runs waitReaders — the flavor's
// grace period — and every caller whose target that covers is released
// by it instead of waiting out all readers itself. early is Domain's
// snapEarly mutant.
//
// Soundness of sharing: a follower observing sequence q at entry is
// released at seqSnap(q), i.e. only by a grace period whose leader won
// its election CAS *after* the follower's load of q (the CAS is ordered
// after q in the sequence's modification order — an earlier leader
// would have made the load return an in-flight value that seqSnap
// rounds past). The leader starts waitReaders after that CAS, so every
// reader inside a critical section at the follower's call entry is
// either still inside — and waited for — or already left; both satisfy
// the follower.
//
// waitReaders closes over c rather than taking it, so the call's
// bookkeeping stays on the caller's stack.
func (e *engine[H]) combine(c *syncCall, early bool, waitReaders func() int) {
	// Torture window: everything before the grace period starts —
	// readers entering now must not be waited for, readers already
	// inside must be.
	schedpoint.Hit(schedpoint.RCUSyncFlip)
	if e.nocombine.Load() {
		c.outcome = syncLed
		waitReaders()
		return
	}
	target := seqSnap(e.gpSeq.Load())
	if early {
		target -= gpSeqStride // negative control: see Domain.SetSnapEarlyMutant
	}
	// Torture window: the sequence target is fixed but the election has
	// not happened — the window in which a stale target or a mis-ordered
	// election would let a shared grace period miss this call's readers.
	schedpoint.Hit(schedpoint.RCUGPElect)
	for {
		cur := e.gpSeq.Load()
		if seqDone(cur, target) {
			return
		}
		if cur&gpSeqStateMask == 0 {
			// Idle: try to lead the next grace period. Losing the race
			// just means reloading — the winner is doing our work.
			if !e.gpSeq.CompareAndSwap(cur, cur+1) {
				continue
			}
			c.outcome = syncLed
			leadStart := time.Now()
			waited := waitReaders()
			e.gpSeq.Add(gpSeqStride - 1) // publish completion at cur+2
			if c.span != nil {
				c.span.GPLead(leadStart, cur+gpSeqStride, waited)
			}
			continue
		}
		// A grace period is in flight: follow it. The in-flight grace
		// period (or a successor we may still need to lead) releases us.
		c.outcome = syncShared
		followStart := time.Now()
		c.await(func() bool { return e.gpSeq.Load() != cur }, e.activeReaders)
		e.stats.followWait(time.Since(followStart))
		if c.span != nil {
			c.span.GPShare(followStart, target, cur)
		}
	}
}

// synchronizeCtx is every flavor's SynchronizeCtx: run the full
// Synchronize of f in a helper goroutine and release the caller on
// whichever of completion and cancellation comes first. A caller that
// leaves early is counted in Stats.SyncAbandoned.
func (e *engine[H]) synchronizeCtx(ctx context.Context, f Flavor) error {
	if ctx.Done() == nil {
		f.Synchronize()
		return nil
	}
	if err := ctx.Err(); err != nil {
		return GracePeriodTimeout(err)
	}
	select {
	case <-BeginSynchronize(f):
		return nil
	case <-ctx.Done():
		e.stats.abandoned.Add(1)
		return GracePeriodTimeout(ctx.Err())
	}
}

// A syncOutcome is how one Synchronize call finished. Every call has
// exactly one, so the per-outcome counters partition Synchronizes.
type syncOutcome uint8

const (
	syncExpedited syncOutcome = iota // target reached before it had to lead or wait
	syncShared                       // released by a grace period another caller led
	syncLed                          // released by the grace period it ran itself
)

// A syncCall is one Synchronize call's bookkeeping, kept on the caller's
// stack: its tracer span, its waiting cost, its stall watch and how it
// finished.
type syncCall struct {
	flavor  string // for stall reports
	start   time.Time
	token   uint64 // in-flight registry entry
	span    *citrustrace.SyncSpan
	cost    syncCost
	outcome syncOutcome
	stall   *stallControl
	stats   *syncStats

	// The stall watch: nextStall is the elapsed time at which the next
	// report fires, doubling after each (0: detection off for this
	// call); stalled records that a report fired, raising ActiveStalls.
	nextStall time.Duration
	stalled   bool
}

// begin opens a Synchronize call's bookkeeping, all from one entry time:
// the in-flight registry entry behind ActiveSyncs, the stall watch and
// the tracer span. Every begin pairs with a deferred end.
func (e *engine[H]) begin(flavor string) syncCall {
	c := syncCall{flavor: flavor, start: time.Now(), stall: &e.stall, stats: &e.stats}
	c.nextStall = e.stall.armed()
	if tr := e.tracer.Load(); tr != nil {
		s := tr.SyncBegin()
		c.span = &s
	}
	c.token = e.stats.syncEnter(c.start)
	return c
}

// end closes the call and records it, once, under its outcome. The call
// leaves the in-flight registry last, so a Stats snapshot showing no
// ActiveSyncs has every finished call counted.
func (c *syncCall) end() {
	if c.stalled {
		c.stats.activeStalls.Add(-1)
	}
	if c.span != nil {
		c.span.End(c.cost.spins, c.cost.yields)
	}
	c.stats.record(c.start, c.cost, c.outcome)
	c.stats.syncExit(c.token)
}

// await is the engine's one waiter: it polls done until it holds,
// escalating from busy spins to Gosched rounds to sleeps. Only the sleep
// phase reads the clock, for the stall watch, so healthy grace periods
// pay nothing for detection; a due report names blockers(). It returns
// the busy spins it took.
func (c *syncCall) await(done func() bool, blockers func() []StalledReader) (spins int64) {
	sleep := minWaiterSleep
	for attempt := int64(0); !done(); attempt++ {
		switch {
		case attempt < spinsBeforeYield:
			spins++
		case attempt < spinsBeforeYield+yieldsBeforeSleep:
			runtime.Gosched()
			c.cost.yields++
			c.cost.rechecks++
		default:
			// What we wait on is descheduled or long-running; yielding
			// forever against it burns this core. Sleep instead.
			time.Sleep(sleep)
			if sleep < maxWaiterSleep {
				sleep *= 2
			}
			c.cost.sleeps++
			c.cost.rechecks++
			if c.nextStall > 0 && time.Since(c.start) >= c.nextStall {
				c.reportStall(blockers())
			}
		}
	}
	c.cost.spins += spins
	return spins
}

// reportStall emits one stall report through the domain's handler, stats
// and tracer, then doubles the interval to the next one.
func (c *syncCall) reportStall(readers []StalledReader) {
	waited := time.Since(c.start)
	c.nextStall *= 2
	if !c.stalled {
		c.stalled = true
		c.stats.activeStalls.Add(1)
	}
	c.stats.stalls.Add(1)
	if c.span != nil {
		var first uint64
		if len(readers) > 0 {
			first = readers[0].ID
		}
		c.span.Stall(first, len(readers))
	}
	if h := c.stall.handler.Load(); h != nil {
		(*h)(StallReport{Flavor: c.flavor, Waited: waited, Readers: readers})
	}
}

// waitOut waits out, in registry order, each reader in rs for which
// blocking holds — the scan every flavor's grace period ends with. It
// records a reader-wait span per reader it found blocking and reports
// how many there were; a stall report names every reader from the
// current one on that still blocks.
func waitOut[H registrant](c *syncCall, rs []H, blocking func(i int) bool) (waited int) {
	for i, r := range rs {
		// Torture window: mid-scan, earlier readers have been cleared
		// while this one is still being waited out.
		schedpoint.Hit(schedpoint.RCUSyncScan)
		if !blocking(i) {
			continue
		}
		waited++
		var waitStart time.Time
		if c.span != nil {
			waitStart = time.Now()
		}
		spins := c.await(func() bool { return !blocking(i) },
			func() []StalledReader { return stalled(rs, i, blocking) })
		if c.span != nil {
			c.span.ReaderWait(r.ID(), waitStart, time.Since(waitStart), spins)
		}
	}
	return waited
}

// stalled lists the readers rs[from:] for which blocking holds.
func stalled[H registrant](rs []H, from int, blocking func(i int) bool) []StalledReader {
	var out []StalledReader
	for i := from; i < len(rs); i++ {
		if blocking(i) {
			out = append(out, StalledReader{ID: rs[i].ID(), Site: rs[i].Site()})
		}
	}
	return out
}

// SetTracer attaches tr's grace-period event recording to the domain
// (see citrustrace.SyncTracer); nil detaches. Safe to toggle at any
// time, concurrently with Synchronize calls.
func (e *engine[H]) SetTracer(tr *citrustrace.SyncTracer) { e.tracer.Store(tr) }

// SetStallTimeout arms the grace-period stall detector: a Synchronize
// call still waiting after timeout fires a StallReport (see
// SetStallHandler), bumps Stats.Stalls, and raises Stats.ActiveStalls
// until it completes. Repeated reports for one call double their
// interval. timeout <= 0 disables detection (the default). Safe to
// change at any time; in-flight calls keep the setting they started
// with. Detection only reads time in the slow (sleeping) phase of the
// wait loop, so healthy grace periods pay nothing. For ClassicDomain the
// threshold measures the whole call, including serialization behind
// other synchronizers on its global mutex, but reports only fire while
// blocked on readers (a call queued behind a stalled synchronizer
// surfaces as that call's stall, not its own).
func (e *engine[H]) SetStallTimeout(timeout time.Duration) {
	e.stall.timeout.Store(int64(max(timeout, 0)))
}

// SetStallHandler installs fn as the stall-report sink (nil removes
// it). fn runs synchronously on the stalled Synchronize caller's
// goroutine with no domain locks held; it must be safe for concurrent
// use and should not block. With no handler installed stalls are still
// counted in Stats and traced via citrustrace.EvStall.
func (e *engine[H]) SetStallHandler(fn func(StallReport)) {
	if fn == nil {
		e.stall.handler.Store(nil)
		return
	}
	e.stall.handler.Store(&fn)
}

// SetSiteCapture toggles registration-site capture: while on, Register
// records the caller's "file:line (function)" on the handle, and stall
// reports include it next to each blocking reader id. Costs one
// runtime.Callers walk per Register; the read-side primitives are
// untouched. Handles registered while capture was off report "".
func (e *engine[H]) SetSiteCapture(on bool) { e.stall.capture.Store(on) }

// ActiveStalls reports how many Synchronize calls are stalled past the
// stall threshold right now: Stats().ActiveStalls, read with one atomic
// load and no snapshot, for callers that poll it on a request path (a
// server shedding writes while a grace period is stalled).
func (e *engine[H]) ActiveStalls() int64 { return e.stats.activeStalls.Load() }

// Stats reports the domain's cumulative grace-period accounting. It may
// be called at any time from any goroutine; all counters are monotonic
// except the ActiveStalls gauge.
func (e *engine[H]) Stats() Stats { return e.stats.snapshot(e.Readers()) }

// Readers reports the number of currently registered readers. Intended for
// tests and instrumentation.
func (e *engine[H]) Readers() int { return len(e.registered()) }
