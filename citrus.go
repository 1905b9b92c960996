// Package citrus provides a concurrent binary search tree with wait-free
// lookups and concurrently executing updates, implementing the Citrus
// tree of Arbel & Attiya, "Concurrent Updates with RCU: Search Tree as an
// Example" (PODC 2014).
//
// A Citrus tree is a linearizable ordered dictionary. Get never blocks
// and never retries (it is wait-free for bounded key spaces): it runs
// inside an RCU read-side critical section and proceeds in parallel with
// any number of updates. Insert and Delete synchronize with each other
// using fine-grained per-node locking with post-lock validation, and with
// lookups through RCU grace periods: a delete that relocates a node's
// successor waits for all pre-existing lookups before unlinking the old
// copy, so a lookup can never miss a key that is logically present.
//
// The package's one dictionary is the Forest: N Citrus trees, each with
// its own RCU flavor, with keys routed by hash. New builds the paper's
// single tree, a forest of one shard; NewForest builds more.
//
// # Handles
//
// RCU requires each participating goroutine to be registered, so all
// operations go through a per-goroutine ForestHandle:
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
// A handle must not be used from two goroutines at once; create one
// handle per goroutine (they are cheap: one RCU registration slot per
// shard).
//
// # Consistency of multi-key reads
//
// Single-key operations are linearizable. Multi-key reads are NOT: the
// paper shows (§1, Figure 1) that RCU readers traversing several
// locations can observe concurrent updates in inconsistent orders, which
// is exactly why Citrus restricts its wait-free read-side to single-key
// search.
//
// Range scans (ForestHandle.RangeScan, ForestHandle.Scan) are therefore
// offered with an explicitly *weakly consistent* contract, safe to run
// concurrently with any updates:
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
// A scan runs inside one RCU read-side critical section per shard, which
// delays every two-child delete's grace period on that shard for its
// whole duration. For long scans under update load prefer
// ForestHandle.ScanBatched, which drops and re-acquires the read lock
// every batch, bounding reader dwell time at the cost of a slightly
// weaker miss guarantee (a key whose node is relocated between batches
// can be missed once).
//
// The iteration helpers on Forest (Range, Keys, Len) run the same scan
// path; they are documented quiescent-only because their results are
// only *stable* when the tree is quiet.
//
// The lower-level building blocks are exported for reuse: package rcu
// contains the paper's scalable user-space RCU implementation (§5), which
// is useful on its own for any read-mostly data structure.
package citrus

import (
	"cmp"

	"github.com/go-citrus/citrus/rcu"
)

// New returns an empty one-shard forest, the paper's single Citrus
// tree, using the scalable RCU flavor (rcu.Domain) for read-side
// synchronization and grace periods.
func New[K cmp.Ordered, V any]() *Forest[K, V] {
	return NewForest[K, V](1)
}

// NewWithFlavor returns an empty one-shard forest using the given RCU
// flavor. Use rcu.NewClassicDomain to reproduce the paper's Figure 8
// comparison, or pass one rcu.Domain to several trees so they share its
// grace periods.
func NewWithFlavor[K cmp.Ordered, V any](flavor rcu.Flavor) *Forest[K, V] {
	return NewForest[K, V](1, WithShardFlavor[K](func() rcu.Flavor { return flavor }))
}

// NewWithRecycling returns NewWithFlavor(flavor); rec is ignored.
//
// Deprecated: node recycling is gone, because a recycled node broke
// Citrus's tree-order locking: unlinked nodes are left to the garbage
// collector. Use NewWithFlavor.
func NewWithRecycling[K cmp.Ordered, V any](flavor rcu.Flavor, rec *rcu.Reclaimer) *Forest[K, V] {
	return NewWithFlavor[K, V](flavor)
}

// Stats is a point-in-time snapshot of one shard's cumulative operation
// counters, or their fold over a forest. Every count is monotonically
// non-decreasing, so two snapshots can be subtracted for interval rates.
// See docs/OBSERVABILITY.md for what each counter means in terms of the
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
	// keeps any (all three shipped flavors do); nil otherwise. If the
	// flavor is shared between trees it covers all of them.
	RCU *rcu.Stats `json:"rcu,omitempty"`
}
