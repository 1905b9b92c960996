package core

import (
	"cmp"
	"errors"
)

// errNotEmpty refuses a graft onto a tree that holds a key.
var errNotEmpty = errors.New("core: graft onto a non-empty tree")

// Graft fills an empty tree with n pairs. Its keys must be strictly
// ascending and values index-aligned with them; the caller checks that
// (citrus.Forest.LoadAscending does). It builds the balanced subtree
// over the pairs, each range rooted at its middle index — the shape
// inserting them in level order gives, of height ⌈log2(n+1)⌉ — and
// publishes it the way the paper's insert publishes a leaf (lines
// 26–32): lock the +∞ sentinel, check that its left link is still nil,
// store the subtree's root there, unlock. Every write of that link
// happens under that lock, so the check cannot go stale: an insert
// racing the graft either linked its leaf first, and the graft is
// refused, or fails validation against the new link and searches again
// through the grafted subtree. The subtree is complete before the one
// store that publishes it, so a reader sees all of it or none of it.
//
// The n inserts count in Stats. Graft refuses, linking nothing, a tree
// that holds a key. Empty input does nothing.
func (t *Tree[K, V]) Graft(keys []K, values []V) error {
	if len(keys) == 0 {
		return nil
	}
	sub := balanced(keys, values)
	inf := t.root.child[right].Load()
	inf.mu.Lock()
	if inf.child[left].Load() != nil {
		inf.mu.Unlock()
		return errNotEmpty
	}
	inf.child[left].Store(sub)
	inf.mu.Unlock()
	// No handle made these inserts; count them the way a closed
	// handle's are counted.
	t.hmu.Lock()
	t.closedTotals.inserts += int64(len(keys))
	t.hmu.Unlock()
	return nil
}

// Empty reports whether the tree holds no key, by reading the +∞
// sentinel's left link, which every key lives under.
func (t *Tree[K, V]) Empty() bool {
	return t.root.child[right].Load().child[left].Load() == nil
}

// balanced returns the root of the balanced subtree over the pairs, each
// range rooted at its middle index, with one allocation per node so a
// deleted node's memory goes back on its own.
func balanced[K cmp.Ordered, V any](keys []K, values []V) *node[K, V] {
	if len(keys) == 0 {
		return nil
	}
	mid := len(keys) / 2
	n := newNode(keys[mid], values[mid])
	if l := balanced(keys[:mid], values[:mid]); l != nil {
		n.child[left].Store(l)
	}
	if r := balanced(keys[mid+1:], values[mid+1:]); r != nil {
		n.child[right].Store(r)
	}
	return n
}
