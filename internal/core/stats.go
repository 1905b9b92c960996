package core

import (
	"sync/atomic"

	"github.com/go-citrus/citrus/rcu"
)

// Operation statistics.
//
// Counters are striped per Handle and written only by the handle's
// owning goroutine, so recording is an uncontended plain load + plain
// store pair — no read-modify-write, no shared cache line bouncing
// between workers. This matters most for Contains, whose entire point
// (the paper's §3) is a read side that scales linearly: a single shared
// atomic counter would serialize exactly the path Citrus keeps
// wait-free. Tree.Stats aggregates the live handles' counters plus the
// folded totals of closed handles under a registry mutex.

// ownerCounter is an atomically readable counter whose increments come
// from a single owner goroutine: inc is a plain atomic load + store
// (two cheap instructions, like the RCU reader state word), safe
// because no one else ever writes.
type ownerCounter struct{ v atomic.Int64 }

func (c *ownerCounter) inc()        { c.v.Store(c.v.Load() + 1) }
func (c *ownerCounter) add(n int64) { c.v.Store(c.v.Load() + n) }
func (c *ownerCounter) load() int64 { return c.v.Load() }

// opCounters is one handle's stripe of the tree's operation counters.
type opCounters struct {
	contains        ownerCounter
	inserts         ownerCounter
	insertExisting  ownerCounter
	insertRetries   ownerCounter
	deletes         ownerCounter
	deleteMisses    ownerCounter
	deleteRetries   ownerCounter
	twoChildDeletes ownerCounter
	deleteTimeouts  ownerCounter
	scans           ownerCounter
	scanSections    ownerCounter
	scanPairs       ownerCounter
	scanNodes       ownerCounter
}

// opTotals is a plain (non-atomic) sum of opCounters stripes; the
// tree's registry mutex guards the folded totals of closed handles.
type opTotals struct {
	contains, inserts, insertExisting, insertRetries      int64
	deletes, deleteMisses, deleteRetries, twoChildDeletes int64
	deleteTimeouts                                        int64
	scans, scanSections, scanPairs, scanNodes             int64
}

func (t *opTotals) accumulate(c *opCounters) {
	t.contains += c.contains.load()
	t.inserts += c.inserts.load()
	t.insertExisting += c.insertExisting.load()
	t.insertRetries += c.insertRetries.load()
	t.deletes += c.deletes.load()
	t.deleteMisses += c.deleteMisses.load()
	t.deleteRetries += c.deleteRetries.load()
	t.twoChildDeletes += c.twoChildDeletes.load()
	t.deleteTimeouts += c.deleteTimeouts.load()
	t.scans += c.scans.load()
	t.scanSections += c.scanSections.load()
	t.scanPairs += c.scanPairs.load()
	t.scanNodes += c.scanNodes.load()
}

// Stats is a point-in-time snapshot of a Tree's operation counters. All
// counts are cumulative since the tree was created and monotonically
// non-decreasing across snapshots.
//
// In the paper's terms: InsertRetries and DeleteRetries count failed
// post-lock validations (the optimistic-locking restarts of lines 32
// and 84), and TwoChildDeletes counts successor-relocation deletes —
// each of which executed exactly one inline grace period (the
// synchronize_rcu of line 74), so it equals the tree's contribution to
// the flavor's Synchronizes counter.
type Stats struct {
	Contains        int64 // Contains calls
	Inserts         int64 // Insert calls that added a key
	InsertExisting  int64 // Insert calls that found the key present
	InsertRetries   int64 // insert validation failures (retried)
	Deletes         int64 // Delete calls that removed a key
	DeleteMisses    int64 // Delete calls that found no key
	DeleteRetries   int64 // delete validation failures (retried)
	TwoChildDeletes int64 // deletes that relocated a successor (inline grace periods)
	DeleteTimeouts  int64 // DeleteCtx/DeleteWithin calls whose grace-period wait hit the bound

	Scans        int64 // RangeScan/Scan calls (batched variants count once)
	ScanSections int64 // read-side critical sections entered by scans
	ScanPairs    int64 // key/value pairs emitted by scans
	ScanNodes    int64 // tree nodes visited by scans

	// RCU is the flavor's grace-period accounting, when the flavor
	// keeps any (nil otherwise — e.g. a NoSync-wrapped flavor). For a
	// flavor shared between trees it covers all of them.
	RCU *rcu.Stats
}

// Stats returns a snapshot of the tree's cumulative operation counters
// and — when the flavor supports it — the RCU domain's grace-period
// statistics. Safe to call at any time from
// any goroutine, concurrently with operations and handle churn.
func (t *Tree[K, V]) Stats() Stats {
	t.hmu.Lock()
	tot := t.closedTotals
	for h := range t.handles {
		tot.accumulate(&h.ops)
	}
	t.hmu.Unlock()

	s := Stats{
		Contains:        tot.contains,
		Inserts:         tot.inserts,
		InsertExisting:  tot.insertExisting,
		InsertRetries:   tot.insertRetries,
		Deletes:         tot.deletes,
		DeleteMisses:    tot.deleteMisses,
		DeleteRetries:   tot.deleteRetries,
		TwoChildDeletes: tot.twoChildDeletes,
		DeleteTimeouts:  tot.deleteTimeouts,
		Scans:           tot.scans,
		ScanSections:    tot.scanSections,
		ScanPairs:       tot.scanPairs,
		ScanNodes:       tot.scanNodes,
	}
	if src, ok := t.flavor.(rcu.StatsSource); ok {
		rs := src.Stats()
		s.RCU = &rs
	}
	return s
}

// addHandle registers a live handle's counter stripe with the tree.
func (t *Tree[K, V]) addHandle(h *Handle[K, V]) {
	t.hmu.Lock()
	if t.handles == nil {
		t.handles = make(map[*Handle[K, V]]struct{})
	}
	t.handles[h] = struct{}{}
	t.hmu.Unlock()
}

// dropHandle folds a closing handle's counters into the closed totals
// and removes it from the registry, so Stats stays monotonic across
// handle lifecycles. The fold happens only while the handle is still
// registered: folding an already-dropped handle would count its stripe
// twice — once live, once folded is the invariant (Close's CAS enforces
// it too; the membership check keeps the fold exactly-once even if a
// future caller reaches dropHandle some other way).
func (t *Tree[K, V]) dropHandle(h *Handle[K, V]) {
	t.hmu.Lock()
	if _, ok := t.handles[h]; ok {
		t.closedTotals.accumulate(&h.ops)
		delete(t.handles, h)
	}
	t.hmu.Unlock()
}
