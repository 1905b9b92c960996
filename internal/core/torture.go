package core

import (
	"github.com/go-citrus/citrus/internal/schedpoint"
)

// Torture mode — the reclamation-safety oracle's tree-side half.
//
// A tree is in torture mode when its flavor is an Auditor. Every node a
// delete unlinks is then deferred past a grace period through the
// auditor, and its reclamation (a) is checked by the auditor, which
// knows which readers could still reach it, and (b) poisons the node:
// its child links are swung to a per-tree poison sentinel, so a search
// that reaches the node after its grace period supposedly expired walks
// onto the sentinel and is counted (compareKey's kindPoisoned case).
// Together these turn Lemma 2 / Figure 5 violations — which otherwise
// surface only as an eventual oracle mismatch — into immediate,
// attributable failures: "node X was reclaimed while reader R's
// critical section could still reach it".

// An Auditor is an RCU flavor that audits reclamation for the trees
// built on it. NewTree type-asserts its flavor once; production flavors
// are not Auditors and pay nothing per operation. internal/torture's
// Oracle is the implementation; core sees only the interface to avoid
// an import cycle.
type Auditor interface {
	// RetireStamp is called when a node is unlinked and retired; the
	// returned stamp identifies the retirement instant.
	RetireStamp() uint64

	// CheckReclaim is called when the node's grace period has
	// supposedly elapsed and it is about to be reclaimed. It returns a
	// non-nil error, and keeps its own record of it, if a reader that
	// entered its critical section before the stamp is still inside it.
	CheckReclaim(stamp uint64) error

	// TryDefer runs fn after a grace period, like rcu.Reclaimer's, or
	// reports false and never runs it.
	TryDefer(fn func()) bool

	// Watch hands over a tree's poison-trip count: the number of times
	// a search walked a node after its grace period.
	Watch(trips func() int64)
}

// retire is called with each node a delete unlinked. Outside torture
// mode it does nothing: the node is left to the garbage collector, which
// frees it only once no reader or updater can still reach it — Citrus's
// updaters search without locks and lock what they found afterwards, so
// a node must keep its identity while any of them may hold it, and only
// the GC knows when that is. In torture mode the node is deferred through
// the auditor, and when its grace period ends the auditor checks that no
// reader could still reach it and poisoning makes a reader that does
// anyway trip. Callers guarantee n is unreachable from the root.
func (t *Tree[K, V]) retire(n *node[K, V]) {
	a := t.audit
	if a == nil {
		return
	}
	stamp := a.RetireStamp()
	// A false return means the auditor's reclaimer is closed (a delete
	// racing shutdown): the node stays with the GC, unchecked and
	// unpoisoned, which is still safe.
	a.TryDefer(func() {
		schedpoint.Hit(schedpoint.CoreBeforeReclaim)
		a.CheckReclaim(stamp) // the auditor keeps the record
		t.poisonNode(n)
	})
}

// poisonTrips reports how many times a search walked through a
// reclaimed (poisoned) node — each trip is one observed grace-period
// violation. NewTree hands it to the auditor.
func (t *Tree[K, V]) poisonTrips() int64 {
	return int64(t.poisonSentinel.tag[left].Load())
}

// poisonNode swings a reclaimed node's child links to the tree's poison
// sentinel. The stores are atomic, so a reader erroneously still
// walking the node (the violation being hunted) observes either the old
// link or the sentinel, never a torn pointer; its key, value and marked
// flag are left intact so stale lock-holding updaters (which legally
// lock retired nodes they found before the unlink) keep failing
// validation exactly as on an unpoisoned tree.
func (t *Tree[K, V]) poisonNode(n *node[K, V]) {
	n.child[left].Store(t.poisonSentinel)
	n.child[right].Store(t.poisonSentinel)
}
