package citrus

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/go-citrus/citrus/citrustrace"
	"github.com/go-citrus/citrus/internal/core"
	"github.com/go-citrus/citrus/internal/partition"
	"github.com/go-citrus/citrus/rcu"
)

// A Forest is a sharded dictionary: the key space is partitioned across
// N independent Citrus trees, each with its own RCU domain, accessed
// through per-goroutine handles. A shard is a tree plus its RCU flavor
// and nothing else: unlinked nodes are left to the garbage collector, so
// a forest owns no goroutine and needs no Close. A one-shard forest
// (New, NewWithFlavor) is the paper's single tree.
//
// Why shard: a single Citrus tree shares one RCU domain among all its
// readers, so one slow or stalled reader delays every two-child delete's
// inline grace period (the paper's line-74 synchronize_rcu) — tree-wide.
// Sharding confines that blast radius: a grace period on shard i waits
// only for readers currently inside shard i's critical sections, so a
// stalled reader parks its own shard while the siblings' updates keep
// completing. It also multiplies the update-side lock space.
//
// Routing is by a hash seeded once per process: the same key always
// reaches the same shard, and two forests with the same shard count
// agree on placement. Keys are NOT ordered across shards: scans and the
// iteration helpers (Keys, Range) sort what the shards emit into
// ascending global key order.
//
// Cross-shard consistency: none is promised beyond per-key
// linearizability. Two operations on keys in different shards are
// synchronized by nothing — exactly the guarantee a single tree gives
// two operations on different keys, so most dictionary users lose
// nothing. What a sharded Forest additionally does NOT give is a single
// RCU domain spanning all keys: a reader's critical section covers one
// shard, so no multi-key read can be made atomic by piggybacking on one
// read-side section (a single tree doesn't promise that either — §1,
// Figure 1 of the paper — but with a shared domain one could build it;
// across shards one cannot).
type Forest[K cmp.Ordered, V any] struct {
	shards []forestShard[K, V]
	router partition.Router[K]
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
	flavor func() rcu.Flavor
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
// forest exists for) unless it returns one flavor every time, as
// NewWithFlavor's does. Flavors implementing the optional surfaces —
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
	cfg := forestConfig[K]{flavor: func() rcu.Flavor { return rcu.NewDomain() }}
	for _, o := range opts {
		o(&cfg)
	}
	f := &Forest[K, V]{
		shards: make([]forestShard[K, V], shards),
		router: partition.NewRouter[K](partition.SharedSeed(), shards),
	}
	for i := range f.shards {
		dom := cfg.flavor()
		f.shards[i] = forestShard[K, V]{tree: core.NewTree[K, V](dom), dom: dom}
	}
	return f
}

// NumShards reports the number of partitions.
func (f *Forest[K, V]) NumShards() int { return len(f.shards) }

// shardFor routes a key to its shard.
func (f *Forest[K, V]) shardFor(key K) int { return f.router.Partition(key) }

// Flavor returns shard i's RCU flavor, whatever its concrete type: the
// seam for parking readers and running grace periods on one shard, and
// for wiring stall handlers (rcu.StallControl), tracing (rcu.Traceable)
// or stats (rcu.StatsSource) per shard.
func (f *Forest[K, V]) Flavor(i int) rcu.Flavor { return f.shards[i].dom }

// EnableTracing attaches one fresh flight recorder per shard and
// returns them, index-aligned with routing. Each shard's tree
// operations and grace-period spans go to that shard's own recorder —
// the rings stay shard-local and lock-free, no cross-shard
// coordination on the record path. DumpTrace folds the recorders into
// one shard-tagged trace; use TraceRecorder(i) to inspect one shard.
// Calling EnableTracing again replaces every shard's recorder. See
// package citrustrace for the event taxonomy and the ring-buffer
// overwrite semantics.
//
// Tracing is designed to be cheap but is not free while enabled (about
// two timestamp reads and a ring write per operation); when disabled —
// the default — the hot paths pay one predictable branch and allocate
// nothing. If a flavor is shared between trees, its grace-period events
// go to the most recently attached recorder.
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
// domain and returns the worker's access point. A ForestHandle is not
// safe for concurrent use: one per goroutine, closed when the goroutine
// is done with the forest.
func (f *Forest[K, V]) NewHandle() *ForestHandle[K, V] {
	h := &ForestHandle[K, V]{f: f, hs: make([]*core.Handle[K, V], len(f.shards))}
	for i := range f.shards {
		h.hs[i] = f.shards[i].tree.NewHandle()
	}
	return h
}

// LoadAscending fills an empty forest with pairs whose keys are
// strictly ascending, values index-aligned with keys: the bulk load
// for a forest no other goroutine writes yet, such as one recovering
// from a snapshot. It routes the pairs to their shards stably, so each
// shard's share stays ascending, and grafts each share as one balanced
// tree of height ⌈log2(n+1)⌉ for its n keys, published with one locked
// link: the paper's insert (lines 26–32) applied once, so a reader
// sees all of a shard's share or none of it. The inserts count in
// Stats.
//
// It refuses, linking nothing, keys that are not strictly ascending, a
// length mismatch, and a forest that holds a key: every shard is
// checked before the first is grafted. An insert racing the load can
// still reach a shard after that check; that shard's graft is then
// refused and the shards grafted before it keep their pairs. Empty
// input does nothing.
func (f *Forest[K, V]) LoadAscending(keys []K, values []V) error {
	if len(keys) != len(values) {
		return fmt.Errorf("citrus: LoadAscending of %d keys with %d values", len(keys), len(values))
	}
	if len(keys) == 0 {
		return nil
	}
	for i := 1; i < len(keys); i++ {
		if cmp.Compare(keys[i-1], keys[i]) >= 0 {
			return fmt.Errorf("citrus: LoadAscending: key %v at index %d does not exceed %v before it", keys[i], i, keys[i-1])
		}
	}
	for i := range f.shards {
		if !f.shards[i].tree.Empty() {
			return fmt.Errorf("citrus: LoadAscending: shard %d holds a key", i)
		}
	}
	sk, sv, start := keys, values, []int{0, len(keys)}
	if len(f.shards) > 1 {
		sk, sv, start = f.byShard(keys, values)
	}
	for s := range f.shards {
		lo, hi := start[s], start[s+1]
		if err := f.shards[s].tree.Graft(sk[lo:hi], sv[lo:hi]); err != nil {
			return fmt.Errorf("citrus: LoadAscending: shard %d: %w", s, err)
		}
	}
	return nil
}

// byShard groups the pairs by the shard each key routes to, a counting
// sort: shard s's share is sk[start[s]:start[s+1]], in input order.
func (f *Forest[K, V]) byShard(keys []K, values []V) (sk []K, sv []V, start []int) {
	route := make([]int, len(keys))
	start = make([]int, len(f.shards)+1)
	for i, k := range keys {
		route[i] = f.shardFor(k)
		start[route[i]+1]++
	}
	for s := range f.shards {
		start[s+1] += start[s]
	}
	sk, sv = make([]K, len(keys)), make([]V, len(values))
	next := slices.Clone(start)
	for i, s := range route {
		sk[next[s]], sv[next[s]] = keys[i], values[i]
		next[s]++
	}
	return sk, sv, start
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

// Len reports the total number of keys across all shards. It walks
// every shard. Quiescent use only.
func (f *Forest[K, V]) Len() int {
	n := 0
	for i := range f.shards {
		n += f.shards[i].tree.Len()
	}
	return n
}

// Height reports the height of the tallest (unbalanced) shard.
// Quiescent use only.
func (f *Forest[K, V]) Height() int {
	h := 0
	for i := range f.shards {
		h = max(h, f.shards[i].tree.Height())
	}
	return h
}

// Range calls fn for every pair in ascending global key order until fn
// returns false: a Scan through a temporary handle. Quiescent use only.
func (f *Forest[K, V]) Range(fn func(key K, value V) bool) {
	h := f.NewHandle()
	defer h.Close()
	h.Scan(fn)
}

// Keys returns all keys in ascending global order. Quiescent use only.
func (f *Forest[K, V]) Keys() []K {
	var ks []K
	f.Range(func(k K, _ V) bool { ks = append(ks, k); return true })
	return ks
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
// every shard's counters plus the per-shard breakdown. A one-shard
// forest's Total is its tree's counters.
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

// Stats snapshots every shard's operation counters and RCU
// grace-period statistics and folds the totals. Safe to call at any
// time, from any goroutine, concurrently with operations and handle
// churn; recording costs the operations themselves two uncontended
// plain atomic accesses, so the wait-free read side keeps its
// paper-guaranteed shape. Every count in Total is monotonic, but shard
// snapshots are taken one at a time, so Total is not an atomic
// cross-shard cut — consistent with the forest's no-cross-shard-
// consistency contract.
func (f *Forest[K, V]) Stats() ForestStats {
	fs := ForestStats{Shards: make([]Stats, len(f.shards))}
	totalRCU := &rcu.Stats{}
	for i := range f.shards {
		// Stats mirrors core.Stats field for field, so the conversion
		// stops compiling the day the two drift apart.
		sh := Stats(f.shards[i].tree.Stats())
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
// registered tree handle per shard, with operations routed by key.
type ForestHandle[K cmp.Ordered, V any] struct {
	f  *Forest[K, V]
	hs []*core.Handle[K, V]
}

// Get returns the value stored under key, if any. It is wait-free: no
// locks, no retries, running inside the owning shard's read-side
// critical section concurrently with any updates.
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

// DeleteCtx removes key like Delete, but bounds the caller's wait with
// ctx: a two-child delete's inline grace-period wait (the paper's line
// 74) is abandoned when ctx is done first, returning (true, err) with
// err matching both rcu.ErrGracePeriodTimeout and ctx.Err() under
// errors.Is. The delete has taken effect in that case — the key is
// gone — and the remaining unlink of the old successor completes on a
// background goroutine once the grace period elapses (counted in
// Stats.DeleteTimeouts). A ctx already done, or done between retries,
// returns (false, ctx.Err()) with the forest unchanged by this call.
// The grace period waited on is the owning shard's only.
func (h *ForestHandle[K, V]) DeleteCtx(ctx context.Context, key K) (bool, error) {
	return h.hs[h.f.shardFor(key)].DeleteCtx(ctx, key)
}

// DeleteWithin removes key like DeleteCtx with a context whose deadline
// is d after the call, without building that context: only a two-child
// delete reaching its grace period (the paper's line 74) creates a
// timer, for whatever is left of d, so a miss or a one-child delete
// arms nothing. When d passes during the grace period it returns
// (true, err) with err matching both rcu.ErrGracePeriodTimeout and
// context.DeadlineExceeded: the key is gone, and the old successor's
// unlink completes in the background (counted in Stats.DeleteTimeouts).
// When d has passed before a search, it returns
// (false, context.DeadlineExceeded) with the forest unchanged by this
// call. A d ≤ 0 sets no bound, like Delete. The grace period waited on
// is the owning shard's only.
func (h *ForestHandle[K, V]) DeleteWithin(key K, d time.Duration) (bool, error) {
	return h.hs[h.f.shardFor(key)].DeleteWithin(key, d)
}

// RangeScan calls fn for each pair with lo ≤ key < hi in ascending
// GLOBAL key order, stopping early when fn returns false. Each shard is
// scanned inside its own read-side critical section, weakly consistent
// (see the package comment); fn must not block indefinitely or call
// back into the forest. Shards are hash-partitioned, so no global order
// exists in the structure: with more than one shard the scan collects
// each shard's in-range pairs, sorts the union, and emits — O(result)
// memory and the sort's O(r log r) time. A one-shard forest streams.
// Cross-shard consistency is exactly the forest's usual none: each
// shard's slice reflects a different instant.
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

// rangeScanLimit streams h's in-range pairs to fn, stopping after the
// limit-th.
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

// ScanBatched is Scan with bounded reader dwell: each shard's read-side
// critical section is dropped and re-entered every batch pairs, so a
// long scan (a fuzzy snapshot of the whole forest, say) never parks a
// shard's grace periods for its full duration. Each batch re-descends
// from the shard's root by key. Memory and ordering match Scan: with
// more than one shard every shard's pairs are collected, sorted, and
// emitted in ascending global key order. The consistency is Scan's weak
// contract, further loosened per shard by the batching: a key relocated
// by a two-child delete between batches can be missed once even if
// present throughout. batch < 1 means unbatched (identical to Scan).
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

// Close unregisters the handle from every shard. Close is idempotent;
// any operation on the handle after Close panics with "citrus: Handle
// used after Close".
func (h *ForestHandle[K, V]) Close() {
	for _, sh := range h.hs {
		sh.Close()
	}
}
