package rcu

import (
	"sync"
	"sync/atomic"

	"github.com/go-citrus/citrus/internal/schedpoint"
)

// ClassicDomain mirrors the classic user-space RCU design of Desnoyers,
// McKenney, Stern, Dagenais & Walpole (IEEE TPDS 2012): readers copy a
// global grace-period counter into their own slot on ReadLock, and
// Synchronize — serialized behind a single global mutex — advances the
// global counter and waits for every reader to either leave its critical
// section or observe the new counter value, twice per grace period.
//
// The global mutex is the point: every updater that needs a grace period
// queues behind every other one. This is the behaviour the paper's Figure 8
// measures and indicts; Domain is the fix. Keep ClassicDomain for
// comparison and for workloads with at most one synchronizing updater,
// where it performs identically.
//
// The zero value is ready to use.
type ClassicDomain struct {
	engine[*ClassicHandle]
	syncMu sync.Mutex    // serializes Synchronize callers (the bottleneck)
	gp     atomic.Uint64 // global grace-period counter
}

// NewClassicDomain returns a new, empty ClassicDomain.
func NewClassicDomain() *ClassicDomain {
	d := &ClassicDomain{}
	// Start at 1 so a reader's slot value 0 unambiguously means "not in a
	// read-side critical section".
	d.gp.Store(1)
	return d
}

// A ClassicHandle is a reader registered with a ClassicDomain. Its slot
// holds 0 outside critical sections and the observed grace-period counter
// inside one.
type ClassicHandle struct {
	_    [cacheLinePad]byte
	slot atomic.Uint64
	_    [cacheLinePad - 8]byte

	readerBase
	d *ClassicDomain
}

// active reports whether the handle is inside a read-side critical
// section.
func (h *ClassicHandle) active() bool { return h.slot.Load() != 0 }

// Register adds a reader to the domain and returns its handle.
func (d *ClassicDomain) Register() Reader { return d.register() }

func (d *ClassicDomain) register() *ClassicHandle {
	if d.gp.Load() == 0 {
		d.gp.CompareAndSwap(0, 1) // zero-value domain: establish epoch 1
	}
	h := &ClassicHandle{readerBase: d.enroll(), d: d}
	d.add(h)
	return h
}

// ReadLock enters a read-side critical section by publishing the current
// global grace-period counter in the reader's slot. Wait-free: the
// torture injection point between the counter read and the slot store
// compiles to a single predictable branch unless a schedpoint policy is
// enabled.
func (h *ClassicHandle) ReadLock() {
	if h.d == nil {
		panic("rcu: ClassicHandle used after Unregister")
	}
	if h.slot.Load() != 0 {
		panic("rcu: nested ReadLock on the same ClassicHandle")
	}
	gp := h.d.gp.Load()
	// Torture window: the reader holds a counter value it has not yet
	// published — the exact reordering race the original URCU defends
	// against with its double phase flip (see Synchronize's comment).
	schedpoint.Hit(schedpoint.RCUReadLockPublish)
	h.slot.Store(gp)
}

// ReadUnlock leaves the read-side critical section. Wait-free.
func (h *ClassicHandle) ReadUnlock() {
	if h.slot.Load() == 0 {
		panic("rcu: ReadUnlock outside a read-side critical section")
	}
	h.slot.Store(0)
}

// Synchronize waits for all pre-existing read-side critical sections in the
// handle's domain.
func (h *ClassicHandle) Synchronize() {
	d := h.d
	if d == nil {
		panic("rcu: ClassicHandle used after Unregister")
	}
	d.Synchronize()
}

// Unregister removes the handle from its domain. The handle must not be
// inside a read-side critical section. Unregister is idempotent; any
// other use of the handle afterwards panics with a descriptive message.
func (h *ClassicHandle) Unregister() {
	if h.active() {
		panic("rcu: Unregister inside a read-side critical section")
	}
	if h.d != nil {
		h.d.remove(h)
		h.d = nil
	}
}

// Synchronize blocks until every pre-existing read-side critical section
// has completed. All callers serialize behind one mutex — the bottleneck
// the paper's Figure 8 measures — and each runs its own grace period, so
// every call counts as a lead; the engine supplies only the waiter and
// the bookkeeping.
//
// The original C implementation flips a one-bit phase twice per grace
// period because a single flip admits a reordering race between a reader
// sampling the counter and the synchronizer scanning slots. With Go's
// sequentially consistent atomics and a monotonic epoch a single pass is
// sound: a reader slot below the new epoch belongs to a pre-existing
// section (wait for it); a slot of zero or at/above the new epoch belongs
// to no section or to one that started after this call (ignore it).
func (d *ClassicDomain) Synchronize() {
	// Open the call — clock, stall watch and trace span — before queueing
	// on syncMu: the wait reported in Stats and in the EvSync event
	// includes the serialization behind other synchronizers, which is
	// the cost Figure 8 is about.
	c := d.begin("classic")
	c.outcome = syncLed
	d.syncMu.Lock()
	defer func() {
		d.syncMu.Unlock()
		c.end()
	}()
	// Torture window: before the counter flip, the new grace period is
	// decided but not yet visible to entering readers.
	schedpoint.Hit(schedpoint.RCUSyncFlip)
	newGP := d.gp.Add(1)
	rs := d.registered()
	waitOut(&c, rs, func(i int) bool {
		slot := rs[i].slot.Load()
		return slot != 0 && slot < newGP
	})
}
