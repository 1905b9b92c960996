// Package torture is the seeded fault-injection torture harness behind
// cmd/citrustorture: an rcutorture-style adversarial layer that drives
// the repository's search structures through the rare interleavings the
// paper's §4 proof obligations are about, using the schedule-injection
// points of internal/schedpoint, and watches them with three oracles —
// the linearizability checker, the structural invariant suite, and this
// package's reclamation-safety Oracle.
//
// Torture mode is a property of the flavor: a tree built on an Oracle
// (a core.Auditor) defers, checks and poisons every node it unlinks.
// So the harness tortures the shipped code, not a copy of it: the
// citrus subject is a core tree on an Oracle, and the forest subject is
// the citrus.Forest kvserver serves, built with one Oracle per shard
// through citrus.WithShardFlavor.
package torture

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/go-citrus/citrus/internal/core"
	"github.com/go-citrus/citrus/rcu"
)

// Oracle is an epoch-accounting shadow of an RCU flavor: it wraps a
// real flavor, stamps every reader's critical-section entry with a
// global retirement epoch, and can decide — at the instant a retired
// node is reclaimed — whether any reader that could still reach the
// node is inside its critical section. It implements rcu.Flavor (so a
// tree runs on it transparently) and core.Auditor (so a tree built on
// it is in torture mode: its retired nodes go through the oracle's own
// reclaimer, are checked here and poisoned, and the tree's poison trips
// are summed here).
//
// Soundness: a violation is reported only if a reader (a) recorded its
// entry epoch before the node's retirement stamp and (b) still holds
// that entry at check time. With sequentially consistent atomics that
// means the reader entered its section before the node was retired and
// is still inside it when the node is reclaimed — exactly the
// executions the RCU property (Figure 2) forbids. A reader between its
// inner ReadLock and its entry store is invisible for one instruction,
// so the oracle can miss a violation (it is a detector, not a prover)
// but never invents one: the correct flavors pass under arbitrary
// schedules.
type Oracle struct {
	inner rcu.Flavor
	rec   *rcu.Reclaimer
	epoch atomic.Uint64 // bumped once per retirement; entry stamps quote it

	mu      sync.Mutex // registration copy-on-write, as in rcu.Domain
	readers atomic.Pointer[[]*oreader]
	nextID  atomic.Uint64

	checks     atomic.Int64
	violations atomic.Int64
	vmu        sync.Mutex // guards first and trips
	first      error
	trips      []func() int64
}

var (
	_ rcu.Flavor   = (*Oracle)(nil)
	_ core.Auditor = (*Oracle)(nil)
)

// NewOracle returns an oracle shadowing the given flavor. It starts the
// oracle's reclaimer; Close stops it.
func NewOracle(inner rcu.Flavor) *Oracle {
	o := &Oracle{inner: inner}
	o.epoch.Store(1) // entry stamp 0 means "outside any critical section"
	o.rec = rcu.NewReclaimer(o)
	return o
}

// oreader pairs a wrapped reader with its entry-epoch word, padded like
// the rcu handles so the torture run measures the library's sharing
// behaviour, not the oracle's.
type oreader struct {
	_     [128]byte
	entry atomic.Uint64 // 0 = outside; else epoch observed at entry
	_     [120]byte

	o     *Oracle
	inner rcu.Reader
	id    uint64
}

// Register wraps a reader of the shadowed flavor.
func (o *Oracle) Register() rcu.Reader {
	r := &oreader{o: o, inner: o.inner.Register(), id: o.nextID.Add(1)}
	o.mu.Lock()
	defer o.mu.Unlock()
	old := o.readers.Load()
	var rs []*oreader
	if old != nil {
		rs = make([]*oreader, len(*old), len(*old)+1)
		copy(rs, *old)
	}
	rs = append(rs, r)
	o.readers.Store(&rs)
	return r
}

// Synchronize passes through to the shadowed flavor.
func (o *Oracle) Synchronize() { o.inner.Synchronize() }

// RetireStamp records a retirement instant: it advances the epoch and
// returns the new value. Implements core.Auditor.
func (o *Oracle) RetireStamp() uint64 { return o.epoch.Add(1) }

// CheckReclaim reports whether the node retired at stamp may be
// reclaimed now: it returns a non-nil error iff some reader entered its
// critical section before the retirement and is still inside it —
// i.e. the grace period that was supposed to separate retirement from
// reclamation did not happen. Implements core.Auditor.
func (o *Oracle) CheckReclaim(stamp uint64) error {
	o.checks.Add(1)
	rsp := o.readers.Load()
	if rsp == nil {
		return nil
	}
	for _, r := range *rsp {
		if e := r.entry.Load(); e != 0 && e < stamp {
			o.violations.Add(1)
			err := fmt.Errorf("torture: reclamation violation: reader %d entered its read-side critical section at epoch %d and is still inside it, but a node retired at epoch %d is being reclaimed (no grace period separated them)", r.id, e, stamp)
			o.vmu.Lock()
			if o.first == nil {
				o.first = err
			}
			o.vmu.Unlock()
			return err
		}
	}
	return nil
}

// TryDefer runs fn after a grace period on the oracle's reclaimer, or
// reports false once the oracle is closed. Implements core.Auditor.
func (o *Oracle) TryDefer(fn func()) bool { return o.rec.TryDefer(fn) }

// Watch adds a tree's poison-trip count to PoisonTrips. Implements
// core.Auditor.
func (o *Oracle) Watch(trips func() int64) {
	o.vmu.Lock()
	o.trips = append(o.trips, trips)
	o.vmu.Unlock()
}

// Barrier waits until every reclamation deferred before the call has
// been checked and poisoned.
func (o *Oracle) Barrier() { o.rec.Barrier() }

// Close runs every pending reclamation and stops the reclaimer.
func (o *Oracle) Close() { o.rec.Close() }

// Checks reports how many reclamations the oracle examined.
func (o *Oracle) Checks() int64 { return o.checks.Load() }

// Violations reports how many reclamations were flagged.
func (o *Oracle) Violations() int64 { return o.violations.Load() }

// PoisonTrips reports how many times a search on a watched tree walked
// a reclaimed (poisoned) node.
func (o *Oracle) PoisonTrips() int64 {
	o.vmu.Lock()
	defer o.vmu.Unlock()
	var n int64
	for _, trips := range o.trips {
		n += trips()
	}
	return n
}

// FirstViolation returns the first flagged reclamation's error, nil if
// none.
func (o *Oracle) FirstViolation() error {
	o.vmu.Lock()
	defer o.vmu.Unlock()
	return o.first
}

// Report reports the oracle's failures: the flagged reclamations and
// the first one's error, or else the poison trips. (0, nil) means the
// trees built on the oracle passed.
func (o *Oracle) Report() (int64, error) {
	if n := o.Violations(); n != 0 {
		return n, o.FirstViolation()
	}
	if n := o.PoisonTrips(); n != 0 {
		return n, fmt.Errorf("a search walked a reclaimed (poisoned) node %d time(s)", n)
	}
	return 0, nil
}

// ReadLock enters the shadowed reader's critical section, then records
// the entry epoch. Recording after the inner ReadLock keeps the oracle
// conservative: a delayed entry store can only make the reader look
// younger (missing a real violation), never older (inventing one).
func (r *oreader) ReadLock() {
	r.inner.ReadLock()
	r.entry.Store(r.o.epoch.Load())
}

// ReadUnlock clears the entry stamp, then leaves the shadowed reader's
// critical section — the reverse order of ReadLock, for the same
// conservatism.
func (r *oreader) ReadUnlock() {
	r.entry.Store(0)
	r.inner.ReadUnlock()
}

// Synchronize passes through to the oracle's flavor.
func (r *oreader) Synchronize() { r.o.Synchronize() }

// Unregister removes the reader from the oracle and the shadowed
// flavor.
func (r *oreader) Unregister() {
	o := r.o
	o.mu.Lock()
	old := o.readers.Load()
	if old != nil {
		rs := make([]*oreader, 0, len(*old))
		for _, x := range *old {
			if x != r {
				rs = append(rs, x)
			}
		}
		o.readers.Store(&rs)
	}
	o.mu.Unlock()
	r.inner.Unregister()
}

// ID exposes the wrapped reader's id when it has one, so trace
// attribution keeps working through the oracle.
func (r *oreader) ID() uint64 {
	if ider, ok := r.inner.(interface{ ID() uint64 }); ok {
		return ider.ID()
	}
	return r.id
}
