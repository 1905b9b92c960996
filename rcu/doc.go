// Package rcu provides user-space read-copy-update (RCU) synchronization
// for goroutines.
//
// RCU is a synchronization mechanism that favors readers: a read-side
// critical section, delimited by ReadLock and ReadUnlock, never blocks and
// never writes to shared memory other than the reader's own registration
// slot. The burden of synchronization falls on updaters, which call
// Synchronize to wait for all *pre-existing* read-side critical sections to
// complete (the "grace period"). Read-side critical sections that begin
// after Synchronize was called are not waited for.
//
// The package provides three flavors over one grace-period engine. A
// flavor is a read side plus the one step that differs between designs:
// how a grace period waits out the readers that predate it.
//
//   - Domain is the scalable flavor introduced in §5 of Arbel & Attiya,
//     "Concurrent Updates with RCU: Search Tree as an Example" (PODC 2014).
//     Each registered reader owns a word that packs a critical-section
//     counter and an "inside critical section" flag. A grace period
//     snapshots every reader's word and waits, per reader, until the word
//     changes — i.e. until the reader either leaves its section (flag
//     cleared) or starts a later one (counter advanced).
//
//   - EpochDomain is epoch-based reclamation (EBR): readers pin the
//     global epoch they observed on entry, sections nest for free, and a
//     grace period advances the epoch twice, waiting each time for every
//     reader to be quiescent or pinned past the epoch current at entry.
//
//   - ClassicDomain mirrors the classic user-space RCU design of Desnoyers
//     et al. (IEEE TPDS 2012): a global grace-period counter and a global
//     mutex that serializes all Synchronize callers. It exists as the
//     baseline for the paper's Figure 8, which shows this design
//     collapsing once many updaters synchronize concurrently.
//
// The engine owns the rest: the copy-on-write reader registry, one waiter
// (busy spins, then Gosched, then doubling sleeps; stall detection reads
// the clock only while sleeping), and the per-call bookkeeping behind
// Stats, tracing and stall reports. Domain and EpochDomain also share its
// grace-period combining (Linux Tree RCU's gp_seq): concurrent callers
// elect one leader whose grace period releases every caller it covers,
// so N concurrent synchronizers cost O(1) reader scans without
// serializing. Every call finishes exactly one way — it led, it shared
// another caller's grace period, or it was expedited — and Stats counts
// it once under that outcome.
//
// Unlike kernel or C user-space RCU, this package is not needed for memory
// reclamation in Go — the garbage collector already guarantees that memory
// is not reused while a reader can still reach it. What Synchronize buys is
// *ordering*: an updater can ensure every reader that might have observed
// the old state of a data structure has finished before it takes a step
// that would confuse such readers. The Citrus tree uses exactly this to
// move a node's successor without producing false negatives in concurrent
// wait-free searches.
//
// # Usage
//
// Each goroutine that executes read-side critical sections registers once
// with a flavor and uses its own Reader:
//
//	dom := rcu.NewDomain()
//	r := dom.Register()
//	defer r.Unregister()
//
//	r.ReadLock()
//	// ... read shared data structures ...
//	r.ReadUnlock()
//
// An updater, typically after unpublishing a pointer, waits out readers:
//
//	dom.Synchronize()
//
// A Reader must not be shared between goroutines, read-side critical
// sections must not nest, and a goroutine must never call Synchronize while
// inside its own read-side critical section (self-deadlock).
package rcu
