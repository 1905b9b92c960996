package rcu

import (
	"sync/atomic"

	"github.com/go-citrus/citrus/internal/schedpoint"
)

// EpochDomain is the epoch-based reclamation (EBR) flavor, in the
// lineage of Fraser's epochs and the kernel's QSBR mode: a single
// global epoch counter that only synchronizers advance, and readers
// that pin the epoch they observed on entry.
//
// ReadLock loads the global epoch and publishes it in the reader's slot
// with one uncontended store — no read-modify-write, no shared-line
// contention — and nested sections only bump a goroutine-local nesting
// count, so re-entrant readers pay nothing at all. Synchronize advances
// the global epoch twice, each advance waiting for every reader to be
// either quiescent (slot 0) or pinned past the epoch that was current
// at the call — the fixed covering obligation, so readers entering
// mid-grace-period (pinned at an already-advanced epoch) never delay
// it. Two advances is the canonical three-epoch scheme of the EBR
// literature: objects retired in epoch e may still be visible to
// readers pinned at e, so they are freed only once the global epoch
// reaches e+2 and no reader remains pinned at or before e. (Under Go's
// sequentially consistent atomics a single advance is already sound, as
// in ClassicDomain; the second advance keeps the implementation honest
// to the scheme it reproduces and costs one extra scan of
// usually-quiescent slots.)
//
// Where Domain makes readers pay a counter+flag store per section and
// ClassicDomain a slot store per section, EpochDomain's cost model is
// the same store but with epoch-granular staleness: a reader pinned at
// an old epoch holds up every retirement made since, so deferred-object
// age grows with reader dwell time. That is the age-memory trade-off
// measured by cmd/citrusbench -figure am.
//
// Synchronize takes no locks; concurrent callers combine their grace
// periods through the engine's shared sequence exactly as Domain's do:
// one caller is elected leader and advances the epoch, the rest
// piggyback.
//
// The zero value is ready to use.
type EpochDomain struct {
	engine[*EpochHandle]

	// epoch is the global epoch counter. It starts at 1 so a reader slot
	// of 0 unambiguously means "quiescent", and only grace-period leaders
	// advance it.
	epoch atomic.Uint64

	// advEarly is the torture harness's negative-control mutant: the
	// per-advance reader wait trails the epoch by a full grace period, so
	// readers pinned at the epoch current when Synchronize was called are
	// never waited for.
	advEarly atomic.Bool
}

// NewEpochDomain returns a new, empty EpochDomain.
func NewEpochDomain() *EpochDomain {
	d := &EpochDomain{}
	d.epoch.Store(1)
	return d
}

// An EpochHandle is a reader registered with an EpochDomain. Its slot
// holds 0 while quiescent and the epoch observed at the outermost
// ReadLock while inside a critical section; nesting is a plain
// owner-goroutine counter, so nested sections touch no shared state.
//
// Unlike the other flavors' handles, EpochHandle permits nested
// ReadLock/ReadUnlock pairs: inner sections stay pinned at the
// outermost section's epoch, which is exactly the EBR guarantee.
type EpochHandle struct {
	_    [cacheLinePad]byte
	slot atomic.Uint64
	_    [cacheLinePad - 8]byte

	readerBase
	d       *EpochDomain
	nesting int // owner-goroutine-only section nesting depth
}

// active reports whether the handle is pinned inside a read-side
// critical section.
func (h *EpochHandle) active() bool { return h.slot.Load() != 0 }

// Register adds a reader to the domain and returns its handle.
func (d *EpochDomain) Register() Reader { return d.register() }

func (d *EpochDomain) register() *EpochHandle {
	if d.epoch.Load() == 0 {
		d.epoch.CompareAndSwap(0, 1) // zero-value domain: establish epoch 1
	}
	h := &EpochHandle{readerBase: d.enroll(), d: d}
	d.add(h)
	return h
}

// ReadLock enters a read-side critical section. The outermost entry
// pins the current global epoch with a single uncontended store; nested
// entries only bump the local nesting count. Wait-free: the torture
// injection point between the epoch read and the pinning store compiles
// to a single predictable branch unless a schedpoint policy is enabled.
func (h *EpochHandle) ReadLock() {
	if h.d == nil {
		panic("rcu: EpochHandle used after Unregister")
	}
	if h.nesting > 0 {
		h.nesting++
		return
	}
	e := h.d.epoch.Load()
	// Torture window: the reader holds an epoch value it has not yet
	// published — a synchronizer advancing here must still wait the
	// reader out once the stale pin lands.
	schedpoint.Hit(schedpoint.RCUReadLockPublish)
	h.slot.Store(e)
	h.nesting = 1
}

// ReadUnlock leaves the current read-side critical section; the
// outermost exit clears the pin. Wait-free.
func (h *EpochHandle) ReadUnlock() {
	if h.nesting == 0 {
		panic("rcu: ReadUnlock outside a read-side critical section")
	}
	h.nesting--
	if h.nesting == 0 {
		h.slot.Store(0)
	}
}

// Synchronize waits for all pre-existing read-side critical sections in
// the handle's domain.
func (h *EpochHandle) Synchronize() {
	d := h.d
	if d == nil {
		panic("rcu: EpochHandle used after Unregister")
	}
	d.Synchronize()
}

// Unregister removes the handle from its domain. The handle must not be
// inside a read-side critical section. Unregister is idempotent; any
// other use of the handle afterwards panics with a descriptive message.
func (h *EpochHandle) Unregister() {
	if h.nesting != 0 {
		panic("rcu: Unregister inside a read-side critical section")
	}
	if h.d != nil {
		h.d.remove(h)
		h.d = nil
	}
}

// Synchronize blocks until every read-side critical section that was in
// progress when the call started has completed. It takes no locks, and
// concurrent callers combine exactly as in Domain.Synchronize: one
// leads (advancing the epoch twice), the rest wait on the shared
// sequence. The soundness argument for sharing is Domain's verbatim —
// a follower is only released by a leader whose election happened after
// the follower's sequence load, and that leader's epoch advances cover
// every reader pinned at the follower's call entry.
func (d *EpochDomain) Synchronize() {
	c := d.begin("ebr")
	defer c.end()
	d.combine(&c, false, func() int { return d.waitReaders(&c) })
}

// waitReaders is EpochDomain's grace period: two epoch advances (the
// three-epoch scheme), each waiting for every reader to be quiescent or
// pinned past the epoch current at grace-period entry. The covering
// obligation is fixed at entry — only readers pinned at or before the
// entry epoch predate the call — so both waits share the entry
// threshold; a reader entering mid-grace-period pins the
// already-advanced epoch and is never waited on.
func (d *EpochDomain) waitReaders(c *syncCall) int {
	// threshold is the pin value a reader must have reached to be
	// ignored: one past the entry epoch. The advEarly mutant
	// (SetAdvanceEarlyMutant) lowers it to the entry epoch itself, so
	// readers pinned there — the pre-existing readers this grace period
	// exists to wait for — pass the check without ever being waited on:
	// the classic advance-too-early bug the torture oracle must catch.
	threshold := d.epoch.Load() + 1
	if d.advEarly.Load() {
		threshold--
	}
	waited := 0
	for range 2 {
		d.epoch.Add(1)
		rs := d.registered()
		waited += waitOut(c, rs, func(i int) bool {
			pin := rs[i].slot.Load()
			return pin != 0 && pin < threshold
		})
	}
	return waited
}

// Epoch reports the current global epoch. Intended for tests and
// instrumentation.
func (d *EpochDomain) Epoch() uint64 { return d.epoch.Load() }

// SetCombining toggles grace-period combining (on by default, including
// for zero-value EpochDomains); see Domain.SetCombining.
func (d *EpochDomain) SetCombining(on bool) { d.nocombine.Store(!on) }

// SetAdvanceEarlyMutant deliberately BREAKS the domain for the torture
// harness's negative control (cmd/citrustorture -flavor ebrearly): each
// epoch advance's reader wait trails the new epoch by a full grace
// period, so a reader pinned at the epoch current when Synchronize was
// called is treated as already quiescent and never waited for — the
// epoch has been advanced "too early" relative to the readers it must
// cover. This violates exactly the pre-existing-reader obligation, and
// the torture oracles must catch it (see docs/VERIFICATION.md). Never
// enable it anywhere else.
func (d *EpochDomain) SetAdvanceEarlyMutant(on bool) { d.advEarly.Store(on) }
