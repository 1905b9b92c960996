package core

import (
	"cmp"
	"sync"
	"sync/atomic"
)

// Child directions. The paper writes child[left] and child[right]; we keep
// the same indexing.
const (
	left  = 0
	right = 1
)

// kind distinguishes the two sentinel nodes (§2: dummy keys −1 and ∞,
// generalized here to −∞/+∞ so keys stay generic) from ordinary nodes.
type kind uint8

const (
	kindNormal kind = iota
	kindNegInf      // the root sentinel; every node is in its right subtree
	kindPosInf      // the root's right child; every key is in its left subtree

	// kindPoisoned marks a tree's poison sentinel: in torture mode,
	// reclaimed nodes' child links are swung to it, so any search that
	// reaches memory after its grace period supposedly expired lands on
	// the sentinel and is counted as a reclamation violation
	// (torture.go). Never reachable from the root in a correct
	// execution.
	kindPoisoned
)

// node is a Citrus tree node.
//
// Synchronization per field:
//   - key, value, kind: immutable after creation (Key(v) never changes, §2).
//   - child, tag: written only while holding mu, but read by lock-free
//     searches, hence atomic.
//   - marked: read and written only while holding mu (every validate call
//     runs with the inspected node locked, and every mark is performed by
//     the lock holder).
type node[K cmp.Ordered, V any] struct {
	mu     sync.Mutex
	key    K
	value  V
	kind   kind
	marked bool
	child  [2]atomic.Pointer[node[K, V]]
	tag    [2]atomic.Uint64
}

// newNode returns an unlinked, unmarked leaf holding (key, value).
func newNode[K cmp.Ordered, V any](key K, value V) *node[K, V] {
	return &node[K, V]{key: key, value: value}
}

// compareKey orders the search key against n's key, treating sentinels as
// unequal extremes: +∞ is greater than every key, −∞ smaller. Returns
// <0 if key < n.key, 0 if equal, >0 if key > n.key.
func (n *node[K, V]) compareKey(key K) int {
	switch n.kind {
	case kindPosInf:
		return -1 // key < +∞: searches descend left of the sentinel
	case kindNegInf:
		return +1
	case kindPoisoned:
		// A search inside a read-side critical section walked through a
		// reclaimed node — a Lemma 2 / grace-period violation. Count the
		// trip on the sentinel itself (its tags are otherwise unused)
		// and steer left: the sentinel's children are nil, so the
		// search terminates as a miss.
		n.tag[left].Add(1)
		return -1
	default:
		return cmp.Compare(key, n.key)
	}
}

// incrementTag is the paper's incrementTag (lines 39–41): after a child
// link was rewritten, bump the direction's tag iff the link is now nil, so
// a later insert validating against a stale tag fails (ABA defense).
// Caller must hold n.mu.
func incrementTag[K cmp.Ordered, V any](n *node[K, V], dir int) {
	if n.child[dir].Load() == nil {
		n.tag[dir].Add(1)
	}
}

// validate is the paper's validate (lines 33–38). Caller must hold prev.mu,
// and curr.mu when curr is non-nil. It checks, purely locally, that
//   - prev is still in the tree (unmarked),
//   - prev still links to curr in direction dir,
//   - curr (if any) is still in the tree, and otherwise
//   - the nil link was not filled and emptied since the tag was read
//     (line 38).
func validate[K cmp.Ordered, V any](prev *node[K, V], tag uint64, curr *node[K, V], dir int) bool {
	if prev.marked || prev.child[dir].Load() != curr {
		return false
	}
	if curr != nil { // if curr ≠ ⊥ validate curr's marked bit (line 36)
		return !curr.marked
	}
	if Mutant(activeMutant.Load()) == MutantIgnoreTags {
		return true // MUTANT: line 38's ABA defense disabled (mutant.go)
	}
	return prev.tag[dir].Load() == tag // otherwise validate tag (line 38)
}
