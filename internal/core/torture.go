package core

import (
	"sync"
	"sync/atomic"

	"github.com/go-citrus/citrus/internal/schedpoint"
	"github.com/go-citrus/citrus/rcu"
)

// Torture mode — the reclamation-safety oracle's tree-side half.
//
// In torture mode every retired node goes through a Reclaimer, and its
// reclamation (a) is checked against an epoch-accounting oracle that
// knows which readers could still reach it, and (b) poisons the node:
// its child links are swung to a per-tree poison sentinel, so a search
// that reaches the node after its grace period supposedly expired walks
// onto the sentinel and is counted (compareKey's kindPoisoned case).
// Together these turn Lemma 2 / Figure 5 violations — which otherwise
// surface only as an eventual oracle mismatch — into immediate,
// attributable failures: "node X was reclaimed while reader R's
// critical section could still reach it".

// A ReclaimOracle decides, per reclamation, whether any reader's
// read-side critical section could still reach the node being
// reclaimed. internal/torture.Oracle is the implementation; core sees
// only the interface to avoid an import cycle.
type ReclaimOracle interface {
	// RetireStamp is called when a node is unlinked and retired; the
	// returned stamp identifies the retirement instant.
	RetireStamp() uint64

	// CheckReclaim is called when the node's grace period has
	// supposedly elapsed and it is about to be reclaimed. It returns a
	// non-nil error if a reader that entered its critical section
	// before the stamp is still inside it.
	CheckReclaim(stamp uint64) error
}

// tortureState is a tree's torture configuration and violation record.
type tortureState[K any, V any] struct {
	rec    *rcu.Reclaimer
	oracle ReclaimOracle
	poison bool

	violations atomic.Int64
	mu         sync.Mutex
	first      error
}

func (ts *tortureState[K, V]) fail(err error) {
	ts.violations.Add(1)
	ts.mu.Lock()
	if ts.first == nil {
		ts.first = err
	}
	ts.mu.Unlock()
}

// EnableTorture puts the tree in torture mode: retired nodes are handed
// to rec, checked against oracle (if non-nil) when reclaimed, and — if
// poison is set — poisoned. It must be called before the tree is shared
// between goroutines and at most once.
func (t *Tree[K, V]) EnableTorture(rec *rcu.Reclaimer, oracle ReclaimOracle, poison bool) {
	if t.torture != nil {
		panic("citrus: EnableTorture called twice")
	}
	if rec == nil {
		panic("citrus: EnableTorture needs a Reclaimer")
	}
	t.torture = &tortureState[K, V]{rec: rec, oracle: oracle, poison: poison}
	if poison {
		t.poisonSentinel = &node[K, V]{kind: kindPoisoned, marked: true}
	}
}

// retire is called with each node a delete unlinked. Outside torture
// mode it does nothing: the node is left to the garbage collector, which
// frees it only once no reader or updater can still reach it — Citrus's
// updaters search without locks and lock what they found afterwards, so
// a node must keep its identity while any of them may hold it, and only
// the GC knows when that is. In torture mode the node goes through the
// reclaimer, and when its grace period ends the oracle checks that no
// reader could still reach it and poisoning makes a reader that does
// anyway trip. Callers guarantee n is unreachable from the root.
func (t *Tree[K, V]) retire(n *node[K, V]) {
	tor := t.torture
	if tor == nil {
		return
	}
	var stamp uint64
	if tor.oracle != nil {
		stamp = tor.oracle.RetireStamp()
	}
	// A false return means the reclaimer is closed (a delete racing
	// shutdown): the node stays with the GC, unchecked and unpoisoned,
	// which is still safe.
	tor.rec.TryDefer(func() {
		schedpoint.Hit(schedpoint.CoreBeforeReclaim)
		if tor.oracle != nil {
			if err := tor.oracle.CheckReclaim(stamp); err != nil {
				tor.fail(err)
			}
		}
		if tor.poison {
			t.poisonNode(n)
		}
	})
}

// TortureReport returns the number of reclamation-oracle violations
// observed so far and the first violation's error (nil if none). Only
// meaningful in torture mode; safe to call at any time.
func (t *Tree[K, V]) TortureReport() (violations int64, first error) {
	ts := t.torture
	if ts == nil {
		return 0, nil
	}
	ts.mu.Lock()
	first = ts.first
	ts.mu.Unlock()
	return ts.violations.Load(), first
}

// PoisonTrips reports how many times a search walked through a
// reclaimed (poisoned) node — each trip is one observed grace-period
// violation. Zero on trees without poisoning.
func (t *Tree[K, V]) PoisonTrips() int64 {
	s := t.poisonSentinel
	if s == nil {
		return 0
	}
	return int64(s.tag[left].Load())
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
