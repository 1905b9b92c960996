package citrus

import (
	"cmp"
	"context"
	"fmt"
	"hash/maphash"
	"slices"

	"github.com/go-citrus/citrus/citrustrace"
	"github.com/go-citrus/citrus/internal/core"
	"github.com/go-citrus/citrus/internal/partition"
	"github.com/go-citrus/citrus/rcu"
)

// A Forest is a sharded dictionary: the key space is partitioned across
// N independent Citrus trees, each with its own RCU domain, behind the
// same per-goroutine-handle API as Tree. A shard is a tree plus its RCU
// flavor and nothing else: unlinked nodes are left to the garbage
// collector, so a forest owns no goroutine and needs no Close.
//
// Why shard: a single Citrus tree shares one RCU domain among all its
// readers, so one slow or stalled reader delays every two-child delete's
// inline grace period (the paper's line-74 synchronize_rcu) — tree-wide.
// Sharding confines that blast radius: a grace period on shard i waits
// only for readers currently inside shard i's critical sections, so a
// stalled reader parks its own shard while the siblings' updates keep
// completing. It also multiplies the update-side lock space.
//
// Routing is by seeded hash (internal shared seed by default): the same
// key always reaches the same shard for the forest's lifetime, and two
// forests built with the same seed and shard count agree on placement.
// Keys are NOT ordered across shards, so a Forest is an unordered
// dictionary: Get/Insert/Delete/DeleteCtx keep their Tree semantics and
// per-key linearizability, but the ordered iteration helpers (Keys,
// Range) traverse shard by shard and are quiescent-use only, like Tree's.
//
// Cross-shard consistency: none is promised beyond per-key
// linearizability. Two operations on keys in different shards are
// synchronized by nothing — exactly the guarantee a single Tree gives
// two operations on different keys, so most dictionary users lose
// nothing. What a Forest additionally does NOT give is a single RCU
// domain spanning all keys: a reader's critical section covers one
// shard, so no multi-key read can be made atomic by piggybacking on one
// read-side section (a single Tree doesn't promise that either — §1,
// Figure 1 of the paper — but with a shared domain one could build it;
// with a Forest one cannot).
type Forest[K cmp.Ordered, V any] struct {
	shards []forestShard[K, V]
	part   func(K) int
	seed   maphash.Seed
}

// forestShard is one partition: a core tree and its private RCU flavor
// (a scalable rcu.Domain unless WithShardFlavor says otherwise).
type forestShard[K cmp.Ordered, V any] struct {
	tree *core.Tree[K, V]
	dom  rcu.Flavor
}

// ForestOption configures NewForest.
type ForestOption[K cmp.Ordered] func(*forestConfig[K])

type forestConfig[K cmp.Ordered] struct {
	seed   maphash.Seed
	part   func(K) int
	flavor func() rcu.Flavor
}

// WithForestSeed sets the routing seed. Forests (and rhash maps, and
// anything else built on package-internal seeded partitioning) sharing
// a seed and shard count route every key identically — useful for
// migrating between instances or comparing placements. The default is
// the process-wide shared seed, so two default forests already agree.
func WithForestSeed[K cmp.Ordered](seed maphash.Seed) ForestOption[K] {
	return func(c *forestConfig[K]) { c.seed = seed }
}

// WithPartition replaces hash routing with a user-supplied partition
// function. fn must be pure (the same key must always yield the same
// value — routing a key to two shards over time would make it appear
// and disappear) and must return a value in [0, shards); out-of-range
// values panic at the operation that routes the key.
func WithPartition[K cmp.Ordered](fn func(key K) int) ForestOption[K] {
	return func(c *forestConfig[K]) { c.part = fn }
}

// WithShardReclaimerOptions configures nothing.
//
// Deprecated: forest shards own no reclaimer; unlinked nodes are left to
// the garbage collector.
func WithShardReclaimerOptions[K cmp.Ordered](opts ...rcu.ReclaimerOption) ForestOption[K] {
	return func(*forestConfig[K]) {}
}

// WithShardFlavor replaces the default scalable rcu.Domain with a
// caller-chosen RCU flavor: newFlavor is called once per shard, so each
// shard still owns a private grace-period domain (the isolation the
// forest exists for). Flavors implementing the optional surfaces —
// rcu.Traceable, rcu.StatsSource, rcu.StallControl — keep the forest's
// tracing, stats folding and stall wiring working; all three shipped
// flavors (Domain, ClassicDomain, EpochDomain) implement all of them.
func WithShardFlavor[K cmp.Ordered](newFlavor func() rcu.Flavor) ForestOption[K] {
	return func(c *forestConfig[K]) { c.flavor = newFlavor }
}

// NewForest returns an empty forest of the given number of shards. Each
// shard is an independent Citrus tree with its own scalable RCU domain
// (rcu.Domain).
func NewForest[K cmp.Ordered, V any](shards int, opts ...ForestOption[K]) *Forest[K, V] {
	if shards < 1 {
		panic("citrus: NewForest needs at least 1 shard")
	}
	cfg := forestConfig[K]{seed: partition.SharedSeed()}
	for _, o := range opts {
		o(&cfg)
	}
	f := &Forest[K, V]{
		shards: make([]forestShard[K, V], shards),
		seed:   cfg.seed,
	}
	if cfg.part != nil {
		f.part = cfg.part
	} else {
		router := partition.NewRouter[K](cfg.seed, shards)
		f.part = router.Partition
	}
	for i := range f.shards {
		var dom rcu.Flavor
		if cfg.flavor != nil {
			dom = cfg.flavor()
		} else {
			dom = rcu.NewDomain()
		}
		f.shards[i] = forestShard[K, V]{tree: core.NewTree[K, V](dom), dom: dom}
	}
	return f
}

// NumShards reports the number of partitions.
func (f *Forest[K, V]) NumShards() int { return len(f.shards) }

// shardFor routes a key, bounds-checking user partition functions.
func (f *Forest[K, V]) shardFor(key K) int {
	s := f.part(key)
	if s < 0 || s >= len(f.shards) {
		panic(fmt.Sprintf("citrus: partition function routed key outside [0,%d): %d", len(f.shards), s))
	}
	return s
}

// Domain returns shard i's RCU domain when the shard runs the default
// scalable flavor, nil when WithShardFlavor installed something else.
// Flavor-generic callers (stall wiring, stats) should use Flavor and
// type-assert the optional surface they need.
func (f *Forest[K, V]) Domain(i int) *rcu.Domain {
	d, _ := f.shards[i].dom.(*rcu.Domain)
	return d
}

// Flavor returns shard i's RCU flavor, whatever its concrete type: the
// seam for wiring stall handlers (rcu.StallControl), tracing
// (rcu.Traceable) or stats (rcu.StatsSource) per shard.
func (f *Forest[K, V]) Flavor(i int) rcu.Flavor { return f.shards[i].dom }

// EnableTracing attaches one fresh flight recorder per shard and
// returns them, index-aligned with routing. Each shard's tree
// operations and grace-period spans go to that shard's own recorder —
// the rings stay shard-local and lock-free, no cross-shard
// coordination on the record path. DumpTrace folds the recorders into
// one shard-tagged trace; use TraceRecorder(i) to inspect one shard.
// Calling EnableTracing again replaces every shard's recorder.
func (f *Forest[K, V]) EnableTracing(opts ...citrustrace.Option) []*citrustrace.Recorder {
	recs := make([]*citrustrace.Recorder, len(f.shards))
	for i := range f.shards {
		rec := citrustrace.New(opts...)
		if tr, ok := f.shards[i].dom.(rcu.Traceable); ok {
			tr.SetTracer(rec.SyncTracer("rcu"))
		}
		f.shards[i].tree.SetTracer(rec)
		recs[i] = rec
	}
	return recs
}

// DisableTracing detaches every shard's flight recorder and
// grace-period tracer. Operations already in flight finish recording
// into the recorder they started with; a final DumpTrace still returns
// the captured window.
func (f *Forest[K, V]) DisableTracing() {
	for i := range f.shards {
		f.shards[i].tree.SetTracer(nil)
		if tr, ok := f.shards[i].dom.(rcu.Traceable); ok {
			tr.SetTracer(nil)
		}
	}
}

// TraceRecorder reports shard i's currently attached flight recorder,
// nil when tracing is disabled.
func (f *Forest[K, V]) TraceRecorder(i int) *citrustrace.Recorder {
	return f.shards[i].tree.Tracer()
}

// DumpTrace snapshots every shard's flight recorder and merges them
// into one time-ordered trace on a common epoch, with every event and
// ring tagged by source shard (citrustrace.MergeShards). Shards with
// tracing disabled contribute nothing but keep their index. With
// tracing fully disabled it returns an empty Trace. Safe at any time,
// concurrently with operations and tracing toggles.
func (f *Forest[K, V]) DumpTrace() citrustrace.Trace {
	shards := make([]citrustrace.Trace, len(f.shards))
	for i := range f.shards {
		if rec := f.shards[i].tree.Tracer(); rec != nil {
			shards[i] = rec.Snapshot()
		}
	}
	return citrustrace.MergeShards(shards)
}

// NewHandle registers the calling goroutine with every shard's RCU
// domain and returns the worker's access point. Like Tree handles, a
// ForestHandle is not safe for concurrent use: one per goroutine.
func (f *Forest[K, V]) NewHandle() *ForestHandle[K, V] {
	h := &ForestHandle[K, V]{f: f, hs: make([]*core.Handle[K, V], len(f.shards))}
	for i := range f.shards {
		h.hs[i] = f.shards[i].tree.NewHandle()
	}
	return h
}

// Barrier does nothing.
//
// Deprecated: forest shards own no reclaimer, so there is no queue to
// wait for.
func (f *Forest[K, V]) Barrier() {}

// Close does nothing.
//
// Deprecated: forest shards own no reclaimer, so there is nothing to
// stop.
func (f *Forest[K, V]) Close() {}

// Len reports the total number of keys across all shards. Quiescent use
// only, like Tree.Len.
func (f *Forest[K, V]) Len() int {
	n := 0
	for i := range f.shards {
		n += f.shards[i].tree.Len()
	}
	return n
}

// Height reports the height of the tallest shard. Quiescent use only,
// like Tree.Height.
func (f *Forest[K, V]) Height() int {
	h := 0
	for i := range f.shards {
		h = max(h, f.shards[i].tree.Height())
	}
	return h
}

// Keys returns all keys in ascending global order; a full-range scan
// through the handle scan path. Quiescent use only.
func (f *Forest[K, V]) Keys() []K {
	h := f.NewHandle()
	defer h.Close()
	var ks []K
	h.Scan(func(k K, _ V) bool { ks = append(ks, k); return true })
	return ks
}

// Range calls fn for every pair until fn returns false, shard by shard
// in ascending key order within each shard — NOT global key order.
// Quiescent use only.
func (f *Forest[K, V]) Range(fn func(key K, value V) bool) {
	for i := range f.shards {
		stopped := false
		f.shards[i].tree.Range(func(k K, v V) bool {
			if !fn(k, v) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// CheckInvariants verifies every shard's structural invariants and that
// every key lives in the shard the router assigns it. Quiescent use
// only.
func (f *Forest[K, V]) CheckInvariants() error {
	for i := range f.shards {
		if err := f.shards[i].tree.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		var misrouted error
		f.shards[i].tree.Range(func(k K, _ V) bool {
			if want := f.shardFor(k); want != i {
				misrouted = fmt.Errorf("key %v found in shard %d, routes to %d", k, i, want)
				return false
			}
			return true
		})
		if misrouted != nil {
			return misrouted
		}
	}
	return nil
}

// ForestStats is a point-in-time snapshot of a forest: the fold of
// every shard's counters plus the per-shard breakdown.
type ForestStats struct {
	// Total folds all shards: operation counters are sums, and
	// Total.RCU merges every shard domain's grace-period accounting
	// (counters summed, wait histograms bucket-wise merged — the
	// buckets are identical log2 lattices, so the merge is exact).
	Total Stats `json:"total"`

	// Shards is the per-shard breakdown, index-aligned with routing.
	// Each entry's RCU block is that shard's own domain, which is the
	// view that shows isolation: a stall in one shard raises that
	// entry's ActiveStalls while the siblings' Synchronizes advance.
	Shards []Stats `json:"shards"`
}

// Stats snapshots every shard and folds the totals. Safe to call at any
// time, from any goroutine, concurrently with operations and handle
// churn; the folded Total keeps Tree.Stats's monotonicity (shard
// snapshots are taken one at a time, so Total is not an atomic
// cross-shard cut — consistent with the forest's no-cross-shard-
// consistency contract).
func (f *Forest[K, V]) Stats() ForestStats {
	fs := ForestStats{Shards: make([]Stats, len(f.shards))}
	totalRCU := &rcu.Stats{}
	for i := range f.shards {
		s := f.shards[i].tree.Stats()
		sh := Stats{
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
		fs.Shards[i] = sh

		fs.Total.Contains += sh.Contains
		fs.Total.Inserts += sh.Inserts
		fs.Total.InsertExisting += sh.InsertExisting
		fs.Total.InsertRetries += sh.InsertRetries
		fs.Total.Deletes += sh.Deletes
		fs.Total.DeleteMisses += sh.DeleteMisses
		fs.Total.DeleteRetries += sh.DeleteRetries
		fs.Total.TwoChildDeletes += sh.TwoChildDeletes
		fs.Total.DeleteTimeouts += sh.DeleteTimeouts
		fs.Total.Scans += sh.Scans
		fs.Total.ScanSections += sh.ScanSections
		fs.Total.ScanPairs += sh.ScanPairs
		fs.Total.ScanNodes += sh.ScanNodes
		if sh.RCU != nil {
			// rcu.Stats.Merge is the canonical cross-domain fold:
			// counters and occupancy gauges sum, OldestSyncAgeNanos
			// takes the forest-wide max, histograms merge bucket-wise
			// (exact — shared log2 lattice).
			totalRCU.Merge(*sh.RCU)
		}
	}
	fs.Total.RCU = totalRCU
	return fs
}

// A ForestHandle is one goroutine's access point to a Forest: one
// registered Tree handle per shard, with operations routed by key.
type ForestHandle[K cmp.Ordered, V any] struct {
	f  *Forest[K, V]
	hs []*core.Handle[K, V]
}

// Get returns the value stored under key, if any. Wait-free, inside the
// owning shard's read-side critical section.
func (h *ForestHandle[K, V]) Get(key K) (V, bool) {
	return h.hs[h.f.shardFor(key)].Contains(key)
}

// Contains reports whether key is in the forest. Wait-free.
func (h *ForestHandle[K, V]) Contains(key K) bool {
	_, ok := h.Get(key)
	return ok
}

// Insert adds (key, value) to the owning shard. It returns false — and
// stores nothing — if key is already present.
func (h *ForestHandle[K, V]) Insert(key K, value V) bool {
	return h.hs[h.f.shardFor(key)].Insert(key, value)
}

// Delete removes key from the owning shard. It returns false if key is
// absent.
func (h *ForestHandle[K, V]) Delete(key K) bool {
	return h.hs[h.f.shardFor(key)].Delete(key)
}

// DeleteCtx removes key like Delete with the wait bounded by ctx; see
// Handle.DeleteCtx for the exact semantics. The grace period waited on
// is the owning shard's only.
func (h *ForestHandle[K, V]) DeleteCtx(ctx context.Context, key K) (bool, error) {
	return h.hs[h.f.shardFor(key)].DeleteCtx(ctx, key)
}

// RangeScan calls fn for each pair with lo ≤ key < hi in ascending
// GLOBAL key order, stopping early when fn returns false. Shards are
// hash-partitioned, so no global order exists in the structure; the
// scan collects each shard's in-range pairs (each shard scanned inside
// its own read-side critical section, weakly consistent like
// Handle.RangeScan), sorts the union, and emits — O(result) memory and
// the sort's O(r log r) time. A one-shard forest streams instead, like
// Handle.RangeScan. Cross-shard consistency is exactly the forest's
// usual none: each shard's slice reflects a different instant.
func (h *ForestHandle[K, V]) RangeScan(lo, hi K, fn func(key K, value V) bool) {
	if len(h.hs) == 1 {
		h.hs[0].RangeScan(lo, hi, fn)
		return
	}
	h.merge(fn, func(sh *core.Handle[K, V], emit func(K, V) bool) { sh.RangeScan(lo, hi, emit) })
}

// RangeScanLimit is RangeScan bounded to at most limit pairs: fn sees
// the first limit in-range pairs in ascending global key order (fewer
// if fn stops early or the range is smaller). The bound is enforced on
// the collection side, per shard: each shard emits its in-range pairs
// ascending, so its first limit pairs are the only candidates for the
// global first limit, and the scan buffers O(limit × shards) pairs no
// matter how large the range is — the memory bound plain RangeScan
// with an early-stopping fn cannot give, since it has already collected
// every shard's full result set by the time fn sees pair one. A
// one-shard forest buffers nothing. limit <= 0 scans nothing.
func (h *ForestHandle[K, V]) RangeScanLimit(lo, hi K, limit int, fn func(key K, value V) bool) {
	if len(h.hs) == 1 {
		rangeScanLimit(h.hs[0], lo, hi, limit, fn)
		return
	}
	n := 0
	h.merge(func(k K, v V) bool {
		n++
		return n <= limit && fn(k, v)
	}, func(sh *core.Handle[K, V], emit func(K, V) bool) { rangeScanLimit(sh, lo, hi, limit, emit) })
}

// Scan calls fn for every pair in ascending global key order, stopping
// early when fn returns false. With more than one shard it collects
// every shard's pairs before emitting — O(n) memory; see RangeScan.
func (h *ForestHandle[K, V]) Scan(fn func(key K, value V) bool) {
	if len(h.hs) == 1 {
		h.hs[0].Scan(fn)
		return
	}
	h.merge(fn, (*core.Handle[K, V]).Scan)
}

// ScanBatched is Scan with bounded reader dwell: each shard is
// traversed with Handle.ScanBatched semantics — the shard's read-side
// critical section is dropped and re-entered every batch pairs, so a
// long scan (a fuzzy snapshot of the whole forest, say) never parks a
// shard's grace periods for its full duration. Memory and ordering
// match Scan: with more than one shard every shard's pairs are
// collected, sorted, and emitted in ascending global key order. The
// consistency is Scan's weak contract, further loosened per shard by
// the batching (keys updated between a shard's batches may be seen in
// neither or either state); see Handle.ScanBatched.
func (h *ForestHandle[K, V]) ScanBatched(batch int, fn func(key K, value V) bool) {
	if len(h.hs) == 1 {
		h.hs[0].ScanBatched(batch, fn)
		return
	}
	h.merge(fn, func(sh *core.Handle[K, V], emit func(K, V) bool) { sh.ScanBatched(batch, emit) })
}

// merge runs scan on every shard, sorts the union of what the shards
// emitted, and hands it to fn in ascending key order until fn returns
// false. Hash partitioning routes each key to exactly one shard, so the
// union has no duplicates to filter.
func (h *ForestHandle[K, V]) merge(fn func(K, V) bool, scan func(sh *core.Handle[K, V], emit func(K, V) bool)) {
	type pair struct {
		key   K
		value V
	}
	var pairs []pair
	for _, sh := range h.hs {
		scan(sh, func(k K, v V) bool { pairs = append(pairs, pair{k, v}); return true })
	}
	slices.SortFunc(pairs, func(a, b pair) int { return cmp.Compare(a.key, b.key) })
	for i := range pairs {
		if !fn(pairs[i].key, pairs[i].value) {
			return
		}
	}
}

// Close unregisters the handle from every shard. Idempotent; operations
// after Close panic like Tree handle operations do.
func (h *ForestHandle[K, V]) Close() {
	for _, sh := range h.hs {
		sh.Close()
	}
}
