// Package impls adapts every search structure in this repository to the
// common dict.Map interface and provides the registry used by the
// benchmark harness, the conformance test kit, and the CLIs.
//
// The implementation set mirrors the Citrus paper's evaluation (§5):
// Citrus itself (on both RCU flavors), the RCU-based trees with
// coarse-grained updates (Bonsai, relativistic red-black), and the
// best-available concurrent dictionaries (Bronson AVL, lock-free external
// BST, lazy skiplist) — plus three structures from beyond the figures: a
// mutex-wrapped sequential BST (coarse-grained strawman), the
// hand-over-hand BST (§1's "natural approach"), and the relativistic
// hash table (§6's prior art).
package impls

import (
	"cmp"
	"fmt"

	citrus "github.com/go-citrus/citrus"
	"github.com/go-citrus/citrus/citrustrace"
	"github.com/go-citrus/citrus/internal/avl"
	"github.com/go-citrus/citrus/internal/bonsai"
	"github.com/go-citrus/citrus/internal/core"
	"github.com/go-citrus/citrus/internal/dict"
	"github.com/go-citrus/citrus/internal/hohbst"
	"github.com/go-citrus/citrus/internal/lockfree"
	"github.com/go-citrus/citrus/internal/rbtree"
	"github.com/go-citrus/citrus/internal/rhash"
	"github.com/go-citrus/citrus/internal/seqbst"
	"github.com/go-citrus/citrus/internal/skiplist"
	"github.com/go-citrus/citrus/rcu"
)

// Implementation names as they appear in benchmark output; these are the
// series labels of the paper's figures.
const (
	NameCitrus        = "Citrus"
	NameCitrusClassic = "Citrus (standard RCU)"
	NameCitrusEBR     = "Citrus (EBR)"
	NameAVL           = "AVL"
	NameSkiplist      = "Skiplist"
	NameBonsai        = "Bonsai"
	NameRedBlack      = "Red-Black"
	NameLockFree      = "Lock-Free"
	NameCoarseLock    = "Coarse-Lock BST"
	NameHandOverHand  = "Hand-over-Hand BST"
	NameRCUHash       = "RCU Hash Table"
	NameForest        = "Citrus Forest"
)

// NewCitrus returns a Citrus tree on the paper's scalable RCU flavor.
func NewCitrus[K cmp.Ordered, V any]() dict.Map[K, V] {
	return &citrusMap[K, V]{t: core.NewTree[K, V](rcu.NewDomain()), name: NameCitrus}
}

// NewCitrusClassic returns a Citrus tree on the classic global-lock RCU
// flavor — the left-hand series of the paper's Figure 8.
func NewCitrusClassic[K cmp.Ordered, V any]() dict.Map[K, V] {
	return &citrusMap[K, V]{t: core.NewTree[K, V](rcu.NewClassicDomain()), name: NameCitrusClassic}
}

// NewCitrusEBR returns a Citrus tree on the epoch-based reclamation
// flavor — readers pin a global epoch instead of publishing per-section
// counters, trading the scalable flavor's per-reader stores for a
// single shared epoch word (see rcu.EpochDomain).
func NewCitrusEBR[K cmp.Ordered, V any]() dict.Map[K, V] {
	return &citrusMap[K, V]{t: core.NewTree[K, V](rcu.NewEpochDomain()), name: NameCitrusEBR}
}

// AblationNoSyncCitrus builds the A3 ablation subject: Citrus over a
// flavor whose Synchronize returns immediately. Contains may then return
// false negatives (the guarantee of the paper's line 74 is gone — see
// core's mutation test), but updates still validate, so the structure
// stays intact; comparing its throughput against real Citrus isolates
// the end-to-end cost of grace periods.
func AblationNoSyncCitrus() dict.Map[int, int] {
	return NewCitrusWithFlavor[int, int](rcu.NoSync(rcu.NewDomain()), "Citrus (no grace periods)")
}

// AblationTracedCitrus builds the A4 ablation subject: Citrus with a
// citrustrace flight recorder attached (per-handle operation rings plus
// the domain's grace-period ring), so the throughput delta against
// plain Citrus is the end-to-end cost of event tracing while enabled.
// The recorder is created per tree and never snapshotted during the
// run, matching the flight-recorder deployment mode.
func AblationTracedCitrus() dict.Map[int, int] {
	dom := rcu.NewDomain()
	t := core.NewTree[int, int](dom)
	rec := citrustrace.New()
	dom.SetTracer(rec.SyncTracer("rcu"))
	t.SetTracer(rec)
	return &citrusMap[int, int]{t: t, name: "Citrus (tracing on)"}
}

// NewCitrusWithFlavor returns a Citrus tree on an arbitrary RCU flavor
// under an arbitrary series name — used by the ablation benchmarks, e.g.
// over rcu.NoSync, or over a domain whose native Stats they read.
func NewCitrusWithFlavor[K cmp.Ordered, V any](flavor rcu.Flavor, name string) dict.Map[K, V] {
	return &citrusMap[K, V]{t: core.NewTree[K, V](flavor), name: name}
}

// nativeHandle is the method set every native structure's handle
// provides on its own: single-key ops plus the weakly consistent scans
// added across the module. It is dict.Handle minus Snapshot.
type nativeHandle[K cmp.Ordered, V any] interface {
	Contains(key K) (V, bool)
	Insert(key K, value V) bool
	Delete(key K) bool
	RangeScan(lo, hi K, fn func(key K, value V) bool)
	Scan(fn func(key K, value V) bool)
	Close()
}

// weakHandle lifts a nativeHandle to dict.Handle by adding the typed
// weakly-consistent Snapshot downgrade: structures without a
// point-in-time view (everything but Bonsai and the coarse lock) serve
// Snapshot as live scans labeled dict.WeaklyConsistent.
type weakHandle[K cmp.Ordered, V any] struct{ nativeHandle[K, V] }

func (h weakHandle[K, V]) Snapshot() dict.Snapshot[K, V] {
	return dict.NewWeakSnapshot[K, V](h.nativeHandle)
}

func weak[K cmp.Ordered, V any](h nativeHandle[K, V]) dict.Handle[K, V] {
	return weakHandle[K, V]{h}
}

// TreeStatser is implemented by the Citrus-backed maps: it exposes the
// core tree's operation counters (and, via Stats.RCU, the flavor's
// grace-period accounting) to the benchmark and stress binaries.
// Other implementations don't implement it; callers type-assert.
type TreeStatser interface {
	TreeStats() core.Stats
}

type citrusMap[K cmp.Ordered, V any] struct {
	t    *core.Tree[K, V]
	name string
}

func (m *citrusMap[K, V]) NewHandle() dict.Handle[K, V] { return weak[K, V](m.t.NewHandle()) }
func (m *citrusMap[K, V]) Len() int                     { return m.t.Len() }
func (m *citrusMap[K, V]) Keys() []K                    { return m.t.Keys() }
func (m *citrusMap[K, V]) CheckInvariants() error       { return m.t.CheckInvariants() }
func (m *citrusMap[K, V]) Name() string                 { return m.name }
func (m *citrusMap[K, V]) TreeStats() core.Stats        { return m.t.Stats() }

// NewBonsai returns the RCU path-copying weight-balanced tree.
func NewBonsai[K cmp.Ordered, V any]() dict.Map[K, V] {
	return &bonsaiMap[K, V]{t: bonsai.New[K, V]()}
}

type bonsaiMap[K cmp.Ordered, V any] struct{ t *bonsai.Tree[K, V] }

func (m *bonsaiMap[K, V]) NewHandle() dict.Handle[K, V] { return bonsaiHandle[K, V]{m.t.NewHandle()} }
func (m *bonsaiMap[K, V]) Len() int                     { return m.t.Len() }
func (m *bonsaiMap[K, V]) Keys() []K                    { return m.t.Keys() }
func (m *bonsaiMap[K, V]) CheckInvariants() error       { return m.t.CheckInvariants() }
func (m *bonsaiMap[K, V]) Name() string                 { return NameBonsai }

// bonsaiHandle lifts the bonsai handle to dict.Handle with a REAL
// snapshot: path copying means capturing the root pins an immutable
// version of the whole tree (the GC keeps it alive), so Snapshot is
// dict.SnapshotConsistent — the structure the weakly consistent
// implementations are contrasted against in the conformance kit.
type bonsaiHandle[K cmp.Ordered, V any] struct{ *bonsai.Handle[K, V] }

func (h bonsaiHandle[K, V]) Snapshot() dict.Snapshot[K, V] {
	return bonsaiSnapshot[K, V]{h.Handle.Snap()}
}

type bonsaiSnapshot[K cmp.Ordered, V any] struct{ s bonsai.Snap[K, V] }

func (s bonsaiSnapshot[K, V]) Consistency() dict.Consistency { return dict.SnapshotConsistent }
func (s bonsaiSnapshot[K, V]) Range(lo, hi K, fn func(key K, value V) bool) {
	s.s.Range(lo, hi, fn)
}
func (s bonsaiSnapshot[K, V]) All(fn func(key K, value V) bool) { s.s.All(fn) }
func (s bonsaiSnapshot[K, V]) Close()                           {}

// NewRedBlack returns the relativistic red-black tree.
func NewRedBlack[K cmp.Ordered, V any]() dict.Map[K, V] {
	return &rbMap[K, V]{t: rbtree.New[K, V]()}
}

type rbMap[K cmp.Ordered, V any] struct{ t *rbtree.Tree[K, V] }

func (m *rbMap[K, V]) NewHandle() dict.Handle[K, V] { return weak[K, V](m.t.NewHandle()) }
func (m *rbMap[K, V]) Len() int                     { return m.t.Len() }
func (m *rbMap[K, V]) Keys() []K                    { return m.t.Keys() }
func (m *rbMap[K, V]) CheckInvariants() error       { return m.t.CheckInvariants() }
func (m *rbMap[K, V]) Name() string                 { return NameRedBlack }

// NewAVL returns the Bronson et al. optimistic AVL tree.
func NewAVL[K cmp.Ordered, V any]() dict.Map[K, V] {
	return &avlMap[K, V]{t: avl.New[K, V]()}
}

type avlMap[K cmp.Ordered, V any] struct{ t *avl.Tree[K, V] }

func (m *avlMap[K, V]) NewHandle() dict.Handle[K, V] { return weak[K, V](m.t.NewHandle()) }
func (m *avlMap[K, V]) Len() int                     { return m.t.Len() }
func (m *avlMap[K, V]) Keys() []K                    { return m.t.Keys() }
func (m *avlMap[K, V]) CheckInvariants() error       { return m.t.CheckInvariants() }
func (m *avlMap[K, V]) Name() string                 { return NameAVL }

// NewLockFree returns the non-blocking external BST.
func NewLockFree[K cmp.Ordered, V any]() dict.Map[K, V] {
	return &lfMap[K, V]{t: lockfree.New[K, V]()}
}

type lfMap[K cmp.Ordered, V any] struct{ t *lockfree.Tree[K, V] }

func (m *lfMap[K, V]) NewHandle() dict.Handle[K, V] { return weak[K, V](m.t.NewHandle()) }
func (m *lfMap[K, V]) Len() int                     { return m.t.Len() }
func (m *lfMap[K, V]) Keys() []K                    { return m.t.Keys() }
func (m *lfMap[K, V]) CheckInvariants() error       { return m.t.CheckInvariants() }
func (m *lfMap[K, V]) Name() string                 { return NameLockFree }

// NewSkiplist returns the lazy lock-based skiplist.
func NewSkiplist[K cmp.Ordered, V any]() dict.Map[K, V] {
	return &slMap[K, V]{l: skiplist.New[K, V]()}
}

type slMap[K cmp.Ordered, V any] struct{ l *skiplist.List[K, V] }

func (m *slMap[K, V]) NewHandle() dict.Handle[K, V] { return weak[K, V](m.l.NewHandle()) }
func (m *slMap[K, V]) Len() int                     { return m.l.Len() }
func (m *slMap[K, V]) Keys() []K                    { return m.l.Keys() }
func (m *slMap[K, V]) CheckInvariants() error       { return m.l.CheckInvariants() }
func (m *slMap[K, V]) Name() string                 { return NameSkiplist }

// NewHandOverHand returns the lock-coupling BST — the fine-grained
// locking strawman from the paper's introduction (readers pay two lock
// operations per visited node).
func NewHandOverHand[K cmp.Ordered, V any]() dict.Map[K, V] {
	return &hohMap[K, V]{t: hohbst.New[K, V]()}
}

type hohMap[K cmp.Ordered, V any] struct{ t *hohbst.Tree[K, V] }

func (m *hohMap[K, V]) NewHandle() dict.Handle[K, V] { return weak[K, V](m.t.NewHandle()) }
func (m *hohMap[K, V]) Len() int                     { return m.t.Len() }
func (m *hohMap[K, V]) Keys() []K                    { return m.t.Keys() }
func (m *hohMap[K, V]) CheckInvariants() error       { return m.t.CheckInvariants() }
func (m *hohMap[K, V]) Name() string                 { return NameHandOverHand }

// NewRCUHash returns the relativistic hash table (per-bucket locks, RCU
// readers, reader-transparent resize) — the §6 related-work design whose
// bucket-grained update concurrency Citrus generalizes to per-node.
func NewRCUHash[K cmp.Ordered, V any]() dict.Map[K, V] {
	return &rhashMap[K, V]{m: rhash.New[K, V]()}
}

type rhashMap[K cmp.Ordered, V any] struct{ m *rhash.Map[K, V] }

func (m *rhashMap[K, V]) NewHandle() dict.Handle[K, V] { return weak[K, V](m.m.NewHandle()) }
func (m *rhashMap[K, V]) Len() int                     { return m.m.Len() }
func (m *rhashMap[K, V]) Keys() []K                    { return m.m.Keys() }
func (m *rhashMap[K, V]) CheckInvariants() error       { return m.m.CheckInvariants() }
func (m *rhashMap[K, V]) Name() string                 { return NameRCUHash }

// NewCoarseLock returns a sequential BST behind one mutex.
func NewCoarseLock[K cmp.Ordered, V any]() dict.Map[K, V] {
	return &lockedMap[K, V]{t: seqbst.NewLocked[K, V]()}
}

type lockedMap[K cmp.Ordered, V any] struct{ t *seqbst.Locked[K, V] }

func (m *lockedMap[K, V]) NewHandle() dict.Handle[K, V] { return lockedHandle[K, V]{m.t} }
func (m *lockedMap[K, V]) Len() int                     { return m.t.Len() }
func (m *lockedMap[K, V]) Keys() []K                    { return m.t.Keys() }
func (m *lockedMap[K, V]) CheckInvariants() error       { return m.t.CheckInvariants() }
func (m *lockedMap[K, V]) Name() string                 { return NameCoarseLock }

type lockedHandle[K cmp.Ordered, V any] struct{ t *seqbst.Locked[K, V] }

func (h lockedHandle[K, V]) Contains(key K) (V, bool)   { return h.t.Contains(key) }
func (h lockedHandle[K, V]) Insert(key K, value V) bool { return h.t.Insert(key, value) }
func (h lockedHandle[K, V]) Delete(key K) bool          { return h.t.Delete(key) }
func (h lockedHandle[K, V]) RangeScan(lo, hi K, fn func(key K, value V) bool) {
	h.t.RangeScan(lo, hi, fn)
}
func (h lockedHandle[K, V]) Scan(fn func(key K, value V) bool) { h.t.Scan(fn) }

// Snapshot materializes all pairs under the mutex: holding the one lock
// for the collection makes the copy a true point-in-time view, so the
// coarse lock is the second dict.SnapshotConsistent implementation
// (trivially — by excluding all concurrency).
func (h lockedHandle[K, V]) Snapshot() dict.Snapshot[K, V] {
	var pairs []dict.Pair[K, V]
	h.t.Scan(func(k K, v V) bool {
		pairs = append(pairs, dict.Pair[K, V]{Key: k, Value: v})
		return true
	})
	return dict.NewMaterializedSnapshot(pairs)
}
func (h lockedHandle[K, V]) Close() {}

// NewForestMap returns a sharded Citrus forest behind the dict API:
// the key space hash-partitioned over the given number of independent
// trees, each with its own RCU domain. The returned map implements
// ForestStatser.
func NewForestMap[K cmp.Ordered, V any](shards int) dict.Map[K, V] {
	name := NameForest
	if shards != 1 {
		name = fmt.Sprintf("%s (%d shards)", NameForest, shards)
	}
	return ForestMap(citrus.NewForest[K, V](shards), name)
}

// ForestMap puts an existing forest behind the dict API under the given
// series name; its handles wrap the forest's own. The returned map
// implements ForestStatser.
func ForestMap[K cmp.Ordered, V any](f *citrus.Forest[K, V], name string) dict.Map[K, V] {
	return &forestMap[K, V]{f: f, name: name}
}

// ForestFactory returns a registry entry for an n-shard forest, for
// callers (bench, torture) that sweep the shard axis.
func ForestFactory[K cmp.Ordered, V any](shards int) NamedFactory[K, V] {
	name := NameForest
	if shards != 1 {
		name = fmt.Sprintf("%s (%d shards)", NameForest, shards)
	}
	return NamedFactory[K, V]{name, func() dict.Map[K, V] { return NewForestMap[K, V](shards) }}
}

// ForestStatser exposes the forest's folded + per-shard statistics.
type ForestStatser interface {
	ForestStats() citrus.ForestStats
}

type forestMap[K cmp.Ordered, V any] struct {
	f    *citrus.Forest[K, V]
	name string
}

func (m *forestMap[K, V]) NewHandle() dict.Handle[K, V]    { return forestHandle[K, V]{m.f.NewHandle()} }
func (m *forestMap[K, V]) Len() int                        { return m.f.Len() }
func (m *forestMap[K, V]) Keys() []K                       { return m.f.Keys() }
func (m *forestMap[K, V]) CheckInvariants() error          { return m.f.CheckInvariants() }
func (m *forestMap[K, V]) Name() string                    { return m.name }
func (m *forestMap[K, V]) ForestStats() citrus.ForestStats { return m.f.Stats() }

type forestHandle[K cmp.Ordered, V any] struct {
	h *citrus.ForestHandle[K, V]
}

func (h forestHandle[K, V]) Contains(key K) (V, bool)   { return h.h.Get(key) }
func (h forestHandle[K, V]) Insert(key K, value V) bool { return h.h.Insert(key, value) }
func (h forestHandle[K, V]) Delete(key K) bool          { return h.h.Delete(key) }
func (h forestHandle[K, V]) RangeScan(lo, hi K, fn func(key K, value V) bool) {
	h.h.RangeScan(lo, hi, fn)
}
func (h forestHandle[K, V]) Scan(fn func(key K, value V) bool) { h.h.Scan(fn) }
func (h forestHandle[K, V]) Snapshot() dict.Snapshot[K, V]     { return dict.NewWeakSnapshot[K, V](h) }
func (h forestHandle[K, V]) Close()                            { h.h.Close() }

// A NamedFactory pairs a display name with a factory.
type NamedFactory[K cmp.Ordered, V any] struct {
	Name string
	New  dict.Factory[K, V]
}

// All returns factories for every concurrent implementation, in the
// series order of the paper's figures.
func All[K cmp.Ordered, V any]() []NamedFactory[K, V] {
	return []NamedFactory[K, V]{
		{NameCitrus, NewCitrus[K, V]},
		{NameCitrusClassic, NewCitrusClassic[K, V]},
		{NameCitrusEBR, NewCitrusEBR[K, V]},
		{NameAVL, NewAVL[K, V]},
		{NameSkiplist, NewSkiplist[K, V]},
		{NameBonsai, NewBonsai[K, V]},
		{NameRedBlack, NewRedBlack[K, V]},
		{NameLockFree, NewLockFree[K, V]},
		{NameCoarseLock, NewCoarseLock[K, V]},
		{NameHandOverHand, NewHandOverHand[K, V]},
		{NameRCUHash, NewRCUHash[K, V]},
		ForestFactory[K, V](4),
	}
}

// Figure returns the six series of Figures 9 and 10, in the paper's
// legend order.
func Figure[K cmp.Ordered, V any]() []NamedFactory[K, V] {
	return []NamedFactory[K, V]{
		{NameCitrus, NewCitrus[K, V]},
		{NameAVL, NewAVL[K, V]},
		{NameSkiplist, NewSkiplist[K, V]},
		{NameBonsai, NewBonsai[K, V]},
		{NameRedBlack, NewRedBlack[K, V]},
		{NameLockFree, NewLockFree[K, V]},
	}
}
