package core

import (
	"cmp"

	"github.com/go-citrus/citrus/internal/schedpoint"
)

// Range scans — in-order traversal inside RCU read-side critical
// sections, the first multi-key read operation on the tree.
//
// A scan is weakly consistent (dict.WeaklyConsistent): it promises that
//
//   - emitted keys ascend strictly and each is emitted at most once;
//   - every emitted pair was present at some instant during the scan;
//   - every key present for the scan's whole duration is emitted.
//
// and nothing more — a scan concurrent with updates is not a snapshot
// of any single instant (the paper's Figure 1 argument: RCU readers
// visiting several nodes can observe concurrent updates in different
// orders).
//
// Why the promises hold inside one critical section:
//
//   - Keys are immutable per node, and an in-order stack walk pops keys
//     in non-decreasing order under the paper's weak BST property; the
//     only transient anomaly is a duplicate, produced when a two-child
//     delete publishes the successor's copy (line 73) before the
//     original successor is unlinked (line 80). The monotone-emission
//     filter drops exactly those.
//   - A key present throughout cannot be missed: the only transition
//     that moves a key to an earlier in-order position is that same
//     successor relocation, and its unlink waits for a grace period
//     (line 74) — which our read lock blocks. Until we unlock, the
//     original successor stays reachable ahead of the cursor.
//   - Single-child deletes unlink a node whose child links stay intact
//     (torture mode poisons them only after a grace period), so a scan that
//     entered the unlinked node still descends into a valid subtree.
//
// The batched variants drop and re-acquire the read lock every `batch`
// emitted pairs, so a long scan never pins a grace period across the
// whole traversal — the PR5 stall/backpressure story depends on this.
// Each batch re-descends from the root to the cursor (the last emitted
// key, strictly), making a batch boundary equivalent to restarting a
// fresh bounded scan: the same three promises hold across batches, at
// the cost of O(height) re-descent work per batch.

// Scan outcome of one batch (one read-side critical section).
const (
	scanExhausted = iota // range fully visited
	scanStopped          // fn returned false
	scanYielded          // batch budget spent; resume above s.last
)

// scanState carries a scan across batches: the upper bound, the
// monotone-emission cursor, and a reusable traversal stack.
type scanState[K cmp.Ordered, V any] struct {
	h     *Handle[K, V]
	hi    *K // exclusive upper bound; nil = unbounded
	fn    func(K, V) bool
	last  K    // largest emitted key, valid when have
	have  bool // something was emitted
	stack []*node[K, V]
}

// runBatch executes one read-side critical section: descend to the
// first candidate at (or, when strict, strictly above) bound, then emit
// in-order pairs until the range is exhausted, fn stops the scan, or
// the batch budget (0 = unlimited) is spent.
func (s *scanState[K, V]) runBatch(bound *K, strict bool, budget int) int {
	h := s.h
	r := h.reader()
	h.ops.scanSections.inc()
	var emitted, visited int64
	defer func() { h.ops.scanPairs.add(emitted); h.ops.scanNodes.add(visited) }()

	r.ReadLock()
	s.stack = s.stack[:0]
	// Descend to the ceiling of the cursor: prune subtrees entirely
	// below the bound, pushing every node whose key (and left subtree)
	// may still be in range. compareKey handles the sentinels — and, in
	// torture mode, counts the trip if the scan ever lands on reclaimed
	// memory, exactly like a point search.
	curr := h.t.root
	for curr != nil {
		schedpoint.Hit(schedpoint.CoreScanCS)
		visited++
		c := -1
		if bound != nil {
			c = curr.compareKey(*bound)
		} else if curr.kind == kindPoisoned {
			curr.tag[left].Add(1) // the trip compareKey would have counted
		}
		switch {
		case c < 0: // bound < curr.key: curr and its left subtree qualify
			s.stack = append(s.stack, curr)
			curr = curr.child[left].Load()
		case c == 0 && !strict: // curr.key == bound: included (half-open lo)
			s.stack = append(s.stack, curr)
			curr = nil
		default: // curr.key at or below the bound: skip curr and its left subtree
			curr = curr.child[right].Load()
		}
	}

	for len(s.stack) > 0 {
		n := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		if n.kind == kindNormal {
			if s.hi != nil && cmp.Compare(n.key, *s.hi) >= 0 {
				// Past the upper bound. Every node still stacked is an
				// ancestor reached by a left turn, so its key — and its
				// whole right subtree — is larger still: the scan is done.
				r.ReadUnlock()
				return scanExhausted
			}
			// Monotone-emission filter: drop the transient duplicates a
			// concurrent two-child delete's successor copy produces.
			if !s.have || cmp.Compare(n.key, s.last) > 0 {
				if !s.fn(n.key, n.value) {
					r.ReadUnlock()
					return scanStopped
				}
				s.last = n.key
				s.have = true
				emitted++
				if budget > 0 && emitted >= int64(budget) {
					r.ReadUnlock()
					return scanYielded
				}
			}
		}
		// In-order successor: the leftmost path of n's right subtree.
		// No bound check needed — everything here is above the cursor.
		curr = n.child[right].Load()
		for curr != nil {
			schedpoint.Hit(schedpoint.CoreScanCS)
			visited++
			if curr.kind == kindPoisoned {
				curr.tag[left].Add(1)
			}
			s.stack = append(s.stack, curr)
			curr = curr.child[left].Load()
		}
	}
	r.ReadUnlock()
	return scanExhausted
}

// RangeScan calls fn on pairs with lo ≤ key < hi in ascending key order
// inside one read-side critical section, stopping early when fn returns
// false. Weakly consistent (see the file comment); fn must not call
// back into the tree through the same handle.
func (h *Handle[K, V]) RangeScan(lo, hi K, fn func(key K, value V) bool) {
	h.ops.scans.inc()
	s := scanState[K, V]{h: h, hi: &hi, fn: fn}
	s.runBatch(&lo, false, 0)
}

// Scan calls fn on every pair in ascending key order inside one
// read-side critical section, stopping early when fn returns false.
// Weakly consistent.
func (h *Handle[K, V]) Scan(fn func(key K, value V) bool) {
	h.ops.scans.inc()
	s := scanState[K, V]{h: h, fn: fn}
	s.runBatch(nil, false, 0)
}

// RangeScanBatched is RangeScan, but the read lock is dropped and
// re-acquired every batch emitted pairs, so a long scan never pins one
// grace period across the whole traversal. Each batch resumes with a
// fresh descent strictly above the last emitted key. batch ≤ 0 means
// unbatched.
func (h *Handle[K, V]) RangeScanBatched(lo, hi K, batch int, fn func(key K, value V) bool) {
	if batch <= 0 {
		h.RangeScan(lo, hi, fn)
		return
	}
	h.ops.scans.inc()
	s := scanState[K, V]{h: h, hi: &hi, fn: fn}
	bound, strict := lo, false
	for {
		if s.runBatch(&bound, strict, batch) != scanYielded {
			return
		}
		bound, strict = s.last, true
	}
}

// ScanBatched is Scan with the batched read-lock discipline of
// RangeScanBatched. batch ≤ 0 means unbatched.
func (h *Handle[K, V]) ScanBatched(batch int, fn func(key K, value V) bool) {
	if batch <= 0 {
		h.Scan(fn)
		return
	}
	h.ops.scans.inc()
	s := scanState[K, V]{h: h, fn: fn}
	var bound *K
	strict := false
	for {
		if s.runBatch(bound, strict, batch) != scanYielded {
			return
		}
		b := s.last
		bound, strict = &b, true
	}
}
