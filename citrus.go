// Package citrus provides a concurrent binary search tree with wait-free
// lookups and concurrently executing updates, implementing the Citrus
// tree of Arbel & Attiya, "Concurrent Updates with RCU: Search Tree as an
// Example" (PODC 2014).
//
// A Tree is a linearizable ordered dictionary. Contains never blocks and
// never retries (it is wait-free for bounded key spaces): it runs inside
// an RCU read-side critical section and proceeds in parallel with any
// number of updates. Insert and Delete synchronize with each other using
// fine-grained per-node locking with post-lock validation, and with
// lookups through RCU grace periods: a delete that relocates a node's
// successor waits for all pre-existing lookups before unlinking the old
// copy, so a lookup can never miss a key that is logically present.
//
// # Handles
//
// RCU requires each participating goroutine to be registered, so all
// operations go through a per-goroutine Handle:
//
//	tree := citrus.New[int, string]()
//
//	h := tree.NewHandle() // one per worker goroutine
//	defer h.Close()
//
//	h.Insert(7, "seven")
//	v, ok := h.Get(7)
//	h.Delete(7)
//
// A Handle must not be used from two goroutines at once; create one
// handle per goroutine (they are cheap: one RCU registration slot).
//
// # Consistency of multi-key reads
//
// Single-key operations are linearizable. Multi-key reads are NOT: the
// paper shows (§1, Figure 1) that RCU readers traversing several
// locations can observe concurrent updates in inconsistent orders, which
// is exactly why Citrus restricts its wait-free read-side to single-key
// search.
//
// Range scans (Handle.RangeScan, Handle.Scan) are therefore offered with
// an explicitly *weakly consistent* contract, safe to run concurrently
// with any updates:
//
//   - emitted keys ascend strictly — no duplicates, in order;
//   - every emitted pair was present in the tree at some instant during
//     the scan;
//   - a key present (and not relocated by a concurrent two-child delete)
//     for the scan's whole duration is guaranteed to be emitted.
//
// What a scan does NOT promise is a point-in-time snapshot: two keys
// observed by one scan may never have coexisted. Callers that need
// snapshot semantics should serialize updates around the scan themselves
// or use a snapshot-capable structure (the bonsai tree in this module's
// internal evaluation suite is one).
//
// A scan runs inside one RCU read-side critical section, which delays
// every two-child delete's grace period for its whole duration. For long
// scans under update load prefer Handle.RangeScanBatched, which drops
// and re-acquires the read lock every batch, bounding reader dwell time
// at the cost of a slightly weaker miss guarantee (a key whose node is
// relocated between batches can be missed once).
//
// The quiescent iteration helpers on Tree (Range, Keys, Len) now run the
// same scan path; they remain documented quiescent-only because their
// results are only *stable* when the tree is quiet.
//
// The lower-level building blocks are exported for reuse: package rcu
// contains the paper's scalable user-space RCU implementation (§5), which
// is useful on its own for any read-mostly data structure.
package citrus

import (
	"cmp"
	"context"

	"github.com/go-citrus/citrus/citrustrace"
	"github.com/go-citrus/citrus/internal/core"
	"github.com/go-citrus/citrus/rcu"
)

// Tree is a concurrent binary search tree implementing an ordered
// dictionary. Create one with New and access it through per-goroutine
// Handles.
type Tree[K cmp.Ordered, V any] struct {
	inner *core.Tree[K, V]
}

// New returns an empty tree using the paper's scalable RCU flavor
// (rcu.Domain) for read-side synchronization and grace periods.
func New[K cmp.Ordered, V any]() *Tree[K, V] {
	return NewWithFlavor[K, V](rcu.NewDomain())
}

// NewWithFlavor returns an empty tree using the given RCU flavor. Use
// rcu.NewClassicDomain to reproduce the paper's Figure 8 comparison, or
// share one rcu.Domain among several trees so a single registration
// covers them all.
func NewWithFlavor[K cmp.Ordered, V any](flavor rcu.Flavor) *Tree[K, V] {
	return &Tree[K, V]{inner: core.NewTree[K, V](flavor)}
}

// NewWithRecycling returns NewWithFlavor(flavor); rec is ignored.
//
// Deprecated: node recycling is gone, because a recycled node broke
// Citrus's tree-order locking: unlinked nodes are left to the garbage
// collector. Use NewWithFlavor.
func NewWithRecycling[K cmp.Ordered, V any](flavor rcu.Flavor, rec *rcu.Reclaimer) *Tree[K, V] {
	return NewWithFlavor[K, V](flavor)
}

// NewHandle registers a handle for the calling goroutine. Handles are not
// safe for concurrent use; create one per goroutine and Close it when the
// goroutine is done with the tree.
func (t *Tree[K, V]) NewHandle() *Handle[K, V] {
	return &Handle[K, V]{inner: t.inner.NewHandle()}
}

// Len reports the number of keys in the tree. Quiescent use only (see the
// package comment).
func (t *Tree[K, V]) Len() int { return t.inner.Len() }

// Keys returns all keys in ascending order. Quiescent use only.
func (t *Tree[K, V]) Keys() []K { return t.inner.Keys() }

// Range calls fn for each key/value pair in ascending key order until fn
// returns false. Quiescent use only.
func (t *Tree[K, V]) Range(fn func(key K, value V) bool) { t.inner.Range(fn) }

// Height reports the height of the (unbalanced) tree. Quiescent use only.
func (t *Tree[K, V]) Height() int { return t.inner.Height() }

// CheckInvariants verifies the tree's structural invariants (sentinel
// skeleton, strict BST order, no marked reachable nodes). Quiescent use
// only; returns nil when the structure is sound.
func (t *Tree[K, V]) CheckInvariants() error { return t.inner.CheckInvariants() }

// Stats is a point-in-time snapshot of a Tree's cumulative operation
// counters. Every count is monotonically non-decreasing, so two
// snapshots can be subtracted for interval rates. See
// docs/OBSERVABILITY.md for what each counter means in terms of the
// paper's algorithm.
type Stats struct {
	Contains        int64 `json:"contains"`          // Contains/Get calls
	Inserts         int64 `json:"inserts"`           // Insert calls that added a key
	InsertExisting  int64 `json:"insert_existing"`   // Insert calls that found the key present
	InsertRetries   int64 `json:"insert_retries"`    // insert validation failures (retried)
	Deletes         int64 `json:"deletes"`           // Delete calls that removed a key
	DeleteMisses    int64 `json:"delete_misses"`     // Delete calls that found no key
	DeleteRetries   int64 `json:"delete_retries"`    // delete validation failures (retried)
	TwoChildDeletes int64 `json:"two_child_deletes"` // successor-relocation deletes = inline grace periods
	DeleteTimeouts  int64 `json:"delete_timeouts"`   // DeleteCtx/DeleteWithin grace-period waits cut by the bound

	Scans        int64 `json:"scans"`         // RangeScan/Scan calls (batched or not)
	ScanSections int64 `json:"scan_sections"` // read-side critical sections opened by scans
	ScanPairs    int64 `json:"scan_pairs"`    // pairs emitted to scan callbacks
	ScanNodes    int64 `json:"scan_nodes"`    // nodes visited by scans (emitted or not)

	// RCU carries the flavor's grace-period accounting when the flavor
	// keeps any (rcu.Domain and rcu.ClassicDomain do); nil otherwise.
	// If the flavor is shared between trees it covers all of them.
	RCU *rcu.Stats `json:"rcu,omitempty"`
}

// Stats returns a snapshot of the tree's operation counters and the
// underlying RCU domain's grace-period statistics. It is safe to call
// at any time, from any goroutine, concurrently with operations and
// handle churn; recording costs the operations themselves two
// uncontended plain atomic accesses, so the wait-free read side keeps
// its paper-guaranteed shape.
func (t *Tree[K, V]) Stats() Stats {
	s := t.inner.Stats()
	return Stats{
		Contains:        s.Contains,
		Inserts:         s.Inserts,
		InsertExisting:  s.InsertExisting,
		InsertRetries:   s.InsertRetries,
		Deletes:         s.Deletes,
		DeleteMisses:    s.DeleteMisses,
		DeleteRetries:   s.DeleteRetries,
		TwoChildDeletes: s.TwoChildDeletes,
		DeleteTimeouts:  s.DeleteTimeouts,
		Scans:           s.Scans,
		ScanSections:    s.ScanSections,
		ScanPairs:       s.ScanPairs,
		ScanNodes:       s.ScanNodes,
		RCU:             s.RCU,
	}
}

// EnableTracing attaches a fresh flight recorder to the tree and
// returns it: from now on every operation records typed events
// (operation spans, contended per-node lock waits, validation retries,
// node retirement) into per-handle ring buffers, and — when the tree's
// RCU flavor supports it (rcu.Domain and rcu.ClassicDomain do) — the
// flavor records grace-period spans with a per-reader wait breakdown.
// See package citrustrace for the event taxonomy and the ring-buffer
// overwrite semantics.
//
// Tracing is designed to be cheap but is not free while enabled (about
// two timestamp reads and a ring write per operation); when disabled —
// the default — the hot paths pay one predictable branch and allocate
// nothing. EnableTracing may be called at any time, concurrently with
// operations; calling it again replaces the recorder. If the flavor is
// shared between trees, its grace-period events go to the most recently
// attached recorder.
func (t *Tree[K, V]) EnableTracing(opts ...citrustrace.Option) *citrustrace.Recorder {
	rec := citrustrace.New(opts...)
	if td, ok := t.inner.Flavor().(rcu.Traceable); ok {
		td.SetTracer(rec.SyncTracer("rcu"))
	}
	t.inner.SetTracer(rec)
	return rec
}

// DisableTracing detaches the tree's flight recorder (and the flavor's
// grace-period tracer, when one was attached). Operations already in
// flight finish recording into the recorder they started with; the
// recorder itself stays valid, so a final DumpTrace after disabling
// still returns the captured window.
func (t *Tree[K, V]) DisableTracing() {
	t.inner.SetTracer(nil)
	if td, ok := t.inner.Flavor().(rcu.Traceable); ok {
		td.SetTracer(nil)
	}
}

// TraceRecorder reports the currently attached flight recorder, nil
// when tracing is disabled.
func (t *Tree[K, V]) TraceRecorder() *citrustrace.Recorder { return t.inner.Tracer() }

// DumpTrace snapshots the flight recorder: every ring's surviving
// events merged and time-ordered. It is safe to call at any time, from
// any goroutine, concurrently with operations and with tracing toggles;
// writers are never blocked. With tracing disabled it returns an empty
// Trace. Serialize the result with Trace.WriteJSON or
// Trace.WriteChromeTrace (chrome://tracing / Perfetto).
func (t *Tree[K, V]) DumpTrace() citrustrace.Trace {
	if rec := t.inner.Tracer(); rec != nil {
		return rec.Snapshot()
	}
	return citrustrace.Trace{}
}

// A Handle is one goroutine's access point to a Tree.
type Handle[K cmp.Ordered, V any] struct {
	inner *core.Handle[K, V]
}

// Get returns the value stored under key, if any. It is wait-free: no
// locks, no retries, running concurrently with any updates.
func (h *Handle[K, V]) Get(key K) (V, bool) { return h.inner.Contains(key) }

// Contains reports whether key is in the tree. Wait-free.
func (h *Handle[K, V]) Contains(key K) bool {
	_, ok := h.inner.Contains(key)
	return ok
}

// Insert adds (key, value) to the tree. It returns false — and stores
// nothing — if key is already present.
func (h *Handle[K, V]) Insert(key K, value V) bool { return h.inner.Insert(key, value) }

// Delete removes key from the tree. It returns false if key is absent.
func (h *Handle[K, V]) Delete(key K) bool { return h.inner.Delete(key) }

// DeleteCtx removes key from the tree like Delete, but bounds the
// caller's wait with ctx: a two-child delete's inline grace-period wait
// (the paper's line 74) is abandoned when ctx is done first, returning
// (true, err) with err matching both rcu.ErrGracePeriodTimeout and
// ctx.Err() under errors.Is. The delete has taken effect in that case —
// the key is gone — and the remaining unlink of the old successor
// completes on a background goroutine once the grace period elapses
// (counted in Stats.DeleteTimeouts). A ctx already done, or done
// between retries, returns (false, ctx.Err()) with the tree unchanged
// by this call.
func (h *Handle[K, V]) DeleteCtx(ctx context.Context, key K) (bool, error) {
	return h.inner.DeleteCtx(ctx, key)
}

// RangeScan calls fn for each pair with lo ≤ key < hi in ascending key
// order, stopping early when fn returns false. It is weakly consistent
// (see the package comment): no duplicates, every emitted pair was
// present at some instant during the scan, and a key present — and not
// relocated by a concurrent two-child delete — for the scan's whole
// duration is guaranteed to appear. The whole scan runs inside one RCU
// read-side critical section; fn must not block indefinitely or call
// back into the tree.
func (h *Handle[K, V]) RangeScan(lo, hi K, fn func(key K, value V) bool) {
	h.inner.RangeScan(lo, hi, fn)
}

// Scan calls fn for every pair in ascending key order, stopping early
// when fn returns false. Weakly consistent; see RangeScan.
func (h *Handle[K, V]) Scan(fn func(key K, value V) bool) { h.inner.Scan(fn) }

// RangeScanLimit is RangeScan bounded to at most limit pairs: the scan
// stops after the limit-th emit even if fn kept returning true. On a
// single tree the traversal already streams and stops early, so this is
// purely a convenience — it exists so Tree and Forest handles offer the
// same bounded-scan surface (ForestHandle.RangeScanLimit is where the
// bound buys an O(limit × shards) memory guarantee). limit <= 0 scans
// nothing.
func (h *Handle[K, V]) RangeScanLimit(lo, hi K, limit int, fn func(key K, value V) bool) {
	rangeScanLimit(h.inner, lo, hi, limit, fn)
}

// rangeScanLimit streams h's in-range pairs to fn, stopping after the
// limit-th. Tree handles and one-shard forest handles share it, so the
// two emit and allocate identically.
func rangeScanLimit[K cmp.Ordered, V any](h *core.Handle[K, V], lo, hi K, limit int, fn func(key K, value V) bool) {
	if limit <= 0 {
		return
	}
	n := 0
	h.RangeScan(lo, hi, func(k K, v V) bool {
		if !fn(k, v) {
			return false
		}
		n++
		return n < limit
	})
}

// RangeScanBatched is RangeScan with bounded reader dwell: the read-side
// critical section is dropped and re-acquired after every batch pairs
// emitted, so a long scan never delays a grace period by more than one
// batch's worth of work. Each batch re-descends from the root by key, so
// the guarantee weakens slightly versus RangeScan: a key relocated by a
// two-child delete between batches can be missed once even if logically
// present throughout. batch < 1 means unbatched (identical to
// RangeScan).
func (h *Handle[K, V]) RangeScanBatched(lo, hi K, batch int, fn func(key K, value V) bool) {
	h.inner.RangeScanBatched(lo, hi, batch, fn)
}

// ScanBatched is Scan with bounded reader dwell; see RangeScanBatched.
func (h *Handle[K, V]) ScanBatched(batch int, fn func(key K, value V) bool) {
	h.inner.ScanBatched(batch, fn)
}

// Close unregisters the handle from the tree's RCU flavor. Close is
// idempotent; any operation on the handle after Close panics with
// "citrus: Handle used after Close".
func (h *Handle[K, V]) Close() { h.inner.Close() }
