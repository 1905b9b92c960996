package rcu

import (
	"sync/atomic"

	"github.com/go-citrus/citrus/internal/schedpoint"
)

// Domain is the scalable RCU flavor of Arbel & Attiya (PODC 2014, §5).
//
// Each registered reader owns one word packing a critical-section counter
// (bits 1..63) and an in-critical-section flag (bit 0). ReadLock advances
// the counter and sets the flag with a single atomic store; ReadUnlock
// clears the flag. A grace period snapshots every reader's word and
// waits, per reader whose snapshot has the flag set, for the word to
// change — the reader has then either left the pre-existing section or
// entered a later one, and either way is no longer in a section that
// predates the call.
//
// Synchronize acquires no locks, so any number of goroutines may
// synchronize concurrently (Figure 8 of the paper). On top of that,
// concurrent synchronizers COMBINE their grace periods through the
// engine's shared sequence (Linux Tree RCU's gp_seq idea): each caller
// snapshots the sequence it needs, one caller is elected leader and
// runs the reader scan, and every other caller whose requirement is
// covered piggybacks on the leader's grace period instead of scanning
// all readers itself. N concurrent two-child deleters thus pay O(1)
// scans between them instead of N, without serializing: losing the
// election never blocks progress, it only means someone else is doing
// the work.
//
// The zero value is ready to use.
type Domain struct {
	engine[*Handle]

	// snapEarly is the torture harness's negative-control mutant:
	// targets are computed one stride early, deliberately breaking the
	// combining protocol's covering obligation.
	snapEarly atomic.Bool
}

// NewDomain returns a new, empty Domain.
func NewDomain() *Domain { return &Domain{} }

// A Handle is a reader registered with a Domain.
//
// The state word is written only by the owning goroutine and read by
// synchronizers, so all accesses are atomic but never contended
// read-modify-write operations. Padding keeps each handle's word on a
// private cache line: the paper found (§5) that false sharing of reader
// state dominates the cost of the read-side primitives.
type Handle struct {
	_     [cacheLinePad]byte
	state atomic.Uint64 // counter<<1 | flag
	_     [cacheLinePad - 8]byte

	readerBase
	d *Domain
}

// active reports whether the handle is inside a read-side critical section.
func (h *Handle) active() bool { return h.state.Load()&1 != 0 }

// Register adds a reader to the domain and returns its handle.
func (d *Domain) Register() Reader { return d.register() }

// register is the concrete-typed Register used inside the package.
func (d *Domain) register() *Handle {
	h := &Handle{readerBase: d.enroll(), d: d}
	d.add(h)
	return h
}

// ReadLock enters a read-side critical section: one atomic store that
// advances the counter and sets the flag. Wait-free: the torture
// injection point between the state read and the publishing store
// compiles to a single predictable branch unless a schedpoint policy is
// enabled.
func (h *Handle) ReadLock() {
	if h.d == nil {
		panic("rcu: Handle used after Unregister")
	}
	s := h.state.Load()
	if s&1 != 0 {
		panic("rcu: nested ReadLock on the same Handle")
	}
	// Torture window: a reader suspended here has decided to enter but
	// has not yet published its critical section to synchronizers.
	schedpoint.Hit(schedpoint.RCUReadLockPublish)
	// (counter+1)<<1 | 1 == s + 3 when the flag bit is clear.
	h.state.Store(s + 3)
}

// ReadUnlock leaves the read-side critical section: one atomic store that
// clears the flag. Wait-free.
func (h *Handle) ReadUnlock() {
	s := h.state.Load()
	if s&1 == 0 {
		panic("rcu: ReadUnlock outside a read-side critical section")
	}
	h.state.Store(s &^ 1)
}

// Synchronize waits for all pre-existing read-side critical sections in the
// handle's domain.
func (h *Handle) Synchronize() {
	d := h.d
	if d == nil {
		panic("rcu: Handle used after Unregister")
	}
	d.Synchronize()
}

// Unregister removes the handle from its domain. The handle must not be
// inside a read-side critical section. Unregister is idempotent; any
// other use of the handle afterwards panics with a descriptive message.
func (h *Handle) Unregister() {
	if h.active() {
		panic("rcu: Unregister inside a read-side critical section")
	}
	if h.d != nil {
		h.d.remove(h)
		h.d = nil
	}
}

// Synchronize blocks until every read-side critical section that was in
// progress when the call started has completed. It takes no locks, and
// concurrent callers combine: one leads the reader scan, the rest wait
// on the shared sequence (see the Domain doc comment).
func (d *Domain) Synchronize() {
	c := d.begin("scalable")
	defer c.end()
	d.combine(&c, d.snapEarly.Load(), func() int { return d.waitReaders(&c) })
}

// waitReaders is Domain's grace period: snapshot every reader's word,
// then wait out each reader the snapshot caught inside a critical
// section until its word changes — it has then either left that section
// (flag cleared) or entered a strictly later one (counter advanced).
func (d *Domain) waitReaders(c *syncCall) int {
	var caught []*Handle
	var words []uint64
	for _, r := range d.registered() {
		if w := r.state.Load(); w&1 != 0 {
			caught = append(caught, r)
			words = append(words, w)
		}
	}
	return waitOut(c, caught, func(i int) bool { return caught[i].state.Load() == words[i] })
}

// SetCombining toggles grace-period combining (on by default, including
// for zero-value Domains). With combining off every Synchronize call
// runs its own reader scan, the pre-combining behavior — kept for
// ablation benchmarks (cmd/citrusbench -figure a5) and as an escape
// hatch. Safe to toggle at any time: in-flight calls finish under the
// rule they started with, and both paths provide full grace periods, so
// mixing them is sound.
func (d *Domain) SetCombining(on bool) { d.nocombine.Store(!on) }

// SetSnapEarlyMutant deliberately BREAKS the domain for the torture
// harness's negative control (cmd/citrustorture -flavor snapearly):
// sequence targets are computed one grace-period stride early, so a
// caller is released by the in-flight grace period — whose reader
// snapshot may predate the caller — or, when the domain is idle,
// returns without waiting at all. This violates exactly the covering
// obligation the combining protocol must uphold; the torture oracles
// must catch it (see docs/VERIFICATION.md). Never enable it anywhere
// else.
func (d *Domain) SetSnapEarlyMutant(on bool) { d.snapEarly.Store(on) }
