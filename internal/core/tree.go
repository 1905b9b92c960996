package core

import (
	"cmp"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/go-citrus/citrus/citrustrace"
	"github.com/go-citrus/citrus/internal/schedpoint"
	"github.com/go-citrus/citrus/rcu"
)

// Tree is a Citrus binary search tree. It implements a linearizable
// dictionary with concurrent insert/delete (fine-grained locking) and
// wait-free contains (RCU). Create one with NewTree and access it through
// per-goroutine Handles.
type Tree[K cmp.Ordered, V any] struct {
	flavor rcu.Flavor
	root   *node[K, V] // −∞ sentinel; its right child is the +∞ sentinel

	// tracer is the attached flight recorder, nil while tracing is
	// disabled (see trace.go). Every operation loads it once.
	tracer atomic.Pointer[citrustrace.Recorder]

	// Handle registry for Stats: live handles' counter stripes plus the
	// folded totals of closed ones (see stats.go).
	hmu          sync.Mutex
	handles      map[*Handle[K, V]]struct{}
	closedTotals opTotals

	// Torture mode (nil in production): the flavor as an Auditor, and
	// the sentinel reclaimed nodes are poisoned with (see torture.go).
	audit          Auditor
	poisonSentinel *node[K, V]
}

// NewTree returns an empty tree whose searches and grace periods use the
// given RCU flavor. The flavor is shared: every Handle registers with it,
// and delete's synchronize_rcu waits on its readers. A flavor that is an
// Auditor puts the tree in torture mode.
func NewTree[K cmp.Ordered, V any](flavor rcu.Flavor) *Tree[K, V] {
	root := &node[K, V]{kind: kindNegInf}
	infinity := &node[K, V]{kind: kindPosInf}
	root.child[right].Store(infinity)
	t := &Tree[K, V]{flavor: flavor, root: root}
	if a, ok := flavor.(Auditor); ok {
		t.audit = a
		t.poisonSentinel = &node[K, V]{kind: kindPoisoned, marked: true}
		a.Watch(t.poisonTrips)
	}
	return t
}

// A Handle gives one goroutine access to the tree. Handles must not be
// used concurrently; each worker goroutine should create its own with
// NewHandle and Close it when done.
type Handle[K cmp.Ordered, V any] struct {
	t      *Tree[K, V]
	r      rcu.Reader
	closed atomic.Bool // CAS-guarded so Close folds/unregisters exactly once
	ops    opCounters  // owner-written stripe of the tree's Stats

	// Tracing state, owner-written like ops: the handle's event ring
	// under the recorder it was created for, and a reusable per-op
	// trace context so traced operations allocate nothing (trace.go).
	ring    *citrustrace.Ring
	ringRec *citrustrace.Recorder
	tc      opTrace
}

// NewHandle registers a new per-goroutine handle.
func (t *Tree[K, V]) NewHandle() *Handle[K, V] {
	h := &Handle[K, V]{t: t, r: t.flavor.Register()}
	t.addHandle(h)
	return h
}

// Close unregisters the handle from the tree's RCU flavor and folds its
// operation counters into the tree's totals. Close is idempotent — even
// against a concurrent Close from another goroutine (a shutdown reaper
// racing the owner, say): the CAS guarantees exactly one caller folds
// the counters and unregisters, so Tree.Stats never double-counts a
// handle's stripe. Any operation on the handle after Close panics with
// a descriptive message instead of dereferencing nil.
func (h *Handle[K, V]) Close() {
	if !h.closed.CompareAndSwap(false, true) {
		return // already closed
	}
	h.t.dropHandle(h)
	h.r.Unregister()
	h.r = nil
}

// reader returns the handle's RCU reader, turning use-after-Close into
// a descriptive panic rather than a raw nil dereference.
func (h *Handle[K, V]) reader() rcu.Reader {
	r := h.r
	if r == nil {
		panic("citrus: Handle used after Close")
	}
	return r
}

// Tree returns the tree this handle accesses.
func (h *Handle[K, V]) Tree() *Tree[K, V] { return h.t }

// get is the paper's get (lines 1–15): a sequential BST search performed
// inside an RCU read-side critical section. It returns the last link
// followed: prev —dir→ curr, where curr holds key if the key was found and
// is nil otherwise, plus prev's tag for dir, read inside the critical
// section (line 13).
func (h *Handle[K, V]) get(key K) (prev *node[K, V], tag uint64, curr *node[K, V], dir int) {
	r := h.reader()
	r.ReadLock() // line 2
	prev = h.t.root
	curr = prev.child[right].Load() // line 4: root is never nil
	c := curr.compareKey(key)       // line 5: root's right child is never nil
	dir = right
	for curr != nil && c != 0 { // line 7
		// Torture window: a search suspended mid-descent holds pointers
		// into subtrees that concurrent deletes may be dismantling — the
		// interleaving Lemma 2 and Figure 4 are about.
		schedpoint.Hit(schedpoint.CoreReadCS)
		prev = curr
		if c < 0 { // line 9: currentKey > key ? left : right
			dir = left
		} else {
			dir = right
		}
		curr = prev.child[dir].Load()
		if curr != nil {
			c = curr.compareKey(key)
		}
	}
	tag = prev.tag[dir].Load() // line 13: save tag inside the critical section
	r.ReadUnlock()             // line 14
	return prev, tag, curr, dir
}

// Contains reports whether key is in the dictionary and returns its value
// (lines 16–20). It is wait-free when the key space is finite: it takes no
// locks and never retries.
//
// The paper reads the value after get returns; here the search is inlined
// so the value is captured *inside* the read-side critical section. Values
// are immutable while a node is reachable, and the GC keeps unreachable
// nodes intact, so the two read the same value; reading inside the section
// keeps Contains correct for any reclamation that reuses memory after a
// grace period, which covers only reads inside the section.
func (h *Handle[K, V]) Contains(key K) (V, bool) {
	if h.t.tracer.Load() != nil {
		return h.containsTraced(key)
	}
	r := h.reader()
	h.ops.contains.inc()
	r.ReadLock()
	prev := h.t.root
	curr := prev.child[right].Load()
	c := curr.compareKey(key)
	dir := right
	for curr != nil && c != 0 {
		schedpoint.Hit(schedpoint.CoreReadCS) // torture: suspend mid-descent
		prev = curr
		if c < 0 {
			dir = left
		} else {
			dir = right
		}
		curr = prev.child[dir].Load()
		if curr != nil {
			c = curr.compareKey(key)
		}
	}
	if curr == nil { // the key was not found (line 18)
		r.ReadUnlock()
		var zero V
		return zero, false
	}
	v := curr.value // line 20, inside the critical section
	r.ReadUnlock()
	return v, true
}

// Insert adds (key, value) to the dictionary (lines 21–32). It returns
// false if the key is already present.
func (h *Handle[K, V]) Insert(key K, value V) bool {
	tc := h.traceStart() // nil (one predictable branch) unless tracing
	for {                // line 22
		prev, tag, curr, dir := h.get(key)
		if curr != nil { // the key was found (line 24)
			h.ops.insertExisting.inc()
			tc.end(citrustrace.EvInsert, 0)
			return false
		}
		// Torture window: (prev, tag) go stale here — the window tag
		// validation (Lemma 3 / Figure 5) exists for.
		schedpoint.Hit(schedpoint.CoreSearchToLock)
		if h.link(tc, prev, tag, dir, key, value) {
			return true
		}
	}
}

// link is one locked attempt of Insert (lines 26–32): lock prev,
// validate the (prev, tag, dir) its search found, and link a new leaf
// there. It returns false, with prev unlocked and the tree unchanged,
// when validation fails and Insert must search again.
func (h *Handle[K, V]) link(tc *opTrace, prev *node[K, V], tag uint64, dir int, key K, value V) bool {
	tc.lock(&prev.mu, citrustrace.SiteInsertParent) // line 26
	if !validate(prev, tag, nil, dir) {
		prev.mu.Unlock() // line 32: validation failed, release and retry
		h.ops.insertRetries.inc()
		tc.validateFail(citrustrace.SiteValidateInsert)
		return false
	}
	n := newNode(key, value) // line 28: create a new leaf node
	// Torture window: validated but not yet linked, stretching the lock
	// hold every concurrent conflicting update must fail validation
	// against.
	schedpoint.Hit(schedpoint.CoreValidateToLink)
	prev.child[dir].Store(n) // line 29
	prev.mu.Unlock()
	h.ops.inserts.inc()
	tc.end(citrustrace.EvInsert, 1)
	return true
}

// Delete removes key from the dictionary (lines 42–84). It returns false
// if the key is not present.
func (h *Handle[K, V]) Delete(key K) bool {
	ok, _ := h.delete(key, waitBound{})
	return ok
}

// DeleteCtx removes key from the dictionary like Delete, but bounds the
// caller's wait with ctx. The only unbounded wait in a delete is the
// grace period of a two-child delete (the paper's line 74): when ctx is
// done before that grace period completes, DeleteCtx returns
// (true, err) — the delete has already taken effect (the successor copy
// is published and the target unlinked; that is its linearization
// point) — with err matching both rcu.ErrGracePeriodTimeout and
// ctx.Err() under errors.Is. The remaining cleanup (unlinking the old
// successor and releasing its locks) completes on a background
// goroutine once the grace period truly elapses; keys other than the
// old successor's position are never blocked by it, and a concurrent
// delete of a nearby key simply fails validation and retries until the
// cleanup lands.
//
// A ctx that is already done, or that expires between retries of the
// optimistic loop, yields (false, ctx.Err()) with the tree unchanged by
// this call. A ctx without deadline or cancellation degrades to Delete.
func (h *Handle[K, V]) DeleteCtx(ctx context.Context, key K) (bool, error) {
	var b waitBound
	if ctx != nil && ctx.Done() != nil {
		b.ctx = ctx
	}
	return h.delete(key, b)
}

// DeleteWithin removes key from the dictionary like DeleteCtx with a
// context whose deadline is d after the call, without building that
// context: it reads the clock at the call and before each search, and
// creates a timer only when a two-child delete reaches the grace period
// of line 74, for whatever is left of d. A miss or a one-child delete
// never waits for a grace period, so it arms nothing. Its results are
// DeleteCtx's, with context.DeadlineExceeded as the context's error. A
// d ≤ 0 sets no bound: DeleteWithin then waits like Delete.
func (h *Handle[K, V]) DeleteWithin(key K, d time.Duration) (bool, error) {
	var b waitBound
	if d > 0 {
		b.deadline = time.Now().Add(d)
	}
	return h.delete(key, b)
}

// A waitBound cuts short the one wait a delete makes that has no bound
// of its own, the grace period of line 74: DeleteCtx bounds it by a
// context, DeleteWithin by a deadline. The zero value bounds nothing.
type waitBound struct {
	ctx      context.Context // nil unless the context can be done
	deadline time.Time       // zero unless bounded by a duration
}

// err reports the bound's error once it has passed. The delete loop
// reads it before each search.
func (b waitBound) err() error {
	switch {
	case b.ctx != nil:
		return b.ctx.Err()
	case !b.deadline.IsZero() && !time.Now().Before(b.deadline):
		return context.DeadlineExceeded
	}
	return nil
}

// synchronize waits for a grace period on f within the bound (line 74)
// and returns nil once it completes. When the bound passes first, it
// returns the bound's error and a channel that is closed when the grace
// period completes, for the caller to finish the delete on.
func (b waitBound) synchronize(f rcu.Flavor) (<-chan struct{}, error) {
	if b.ctx == nil && b.deadline.IsZero() {
		f.Synchronize()
		return nil, nil
	}
	done := rcu.BeginSynchronize(f)
	if b.ctx != nil {
		select {
		case <-done:
			return nil, nil
		case <-b.ctx.Done():
			return done, b.ctx.Err()
		}
	}
	timer := time.NewTimer(time.Until(b.deadline))
	defer timer.Stop()
	select {
	case <-done:
		return nil, nil
	case <-timer.C:
		return done, context.DeadlineExceeded
	}
}

// delete is the body of Delete, DeleteCtx and DeleteWithin (lines
// 42–84); b bounds its grace-period wait.
func (h *Handle[K, V]) delete(key K, b waitBound) (bool, error) {
	tc := h.traceStart() // nil (one predictable branch) unless tracing
	for {                // line 43
		if err := b.err(); err != nil {
			tc.end(citrustrace.EvDelete, 0)
			return false, err
		}
		prev, _, curr, dir := h.get(key)
		if curr == nil { // the key was not found (line 45)
			h.ops.deleteMisses.inc()
			tc.end(citrustrace.EvDelete, 0)
			return false, nil
		}
		// Torture window: (prev, curr) go stale here; validation (line
		// 49) must catch every interleaving this admits.
		schedpoint.Hit(schedpoint.CoreSearchToLock)
		tc.lock(&prev.mu, citrustrace.SiteDeleteParent) // line 47
		tc.lock(&curr.mu, citrustrace.SiteDeleteTarget) // line 48
		if !validate(prev, 0, curr, dir) {              // line 49
			curr.mu.Unlock()
			prev.mu.Unlock()
			h.ops.deleteRetries.inc()
			tc.validateFail(citrustrace.SiteValidateDelete)
			continue // line 84: validation failed, release locks and retry
		}

		currLeft := curr.child[left].Load()
		currRight := curr.child[right].Load()
		if currLeft == nil || currRight == nil {
			// curr has a single child (lines 50–56).
			curr.marked = true // line 51
			// Torture window: marked but still linked — the
			// marked-before-removed discipline of Lemma 1.
			schedpoint.Hit(schedpoint.CoreMarkToGrace)
			repl := currLeft // line 52: notNoneChild
			if repl == nil {
				repl = currRight
			}
			prev.child[dir].Store(repl) // line 53
			incrementTag(prev, dir)     // line 54
			curr.mu.Unlock()
			prev.mu.Unlock() // line 55: release all locks
			h.t.retire(curr) // left to the GC (torture mode: checked, poisoned)
			h.ops.deletes.inc()
			tc.retired(1)
			tc.end(citrustrace.EvDelete, 1)
			return true, nil
		}

		// curr has two children (lines 57–83): replace it with a copy of
		// its successor, then retire the original successor after a grace
		// period.
		prevSucc := curr  // line 58: searching for the successor
		succ := currRight // line 59
		next := succ.child[left].Load()
		for next != nil { // lines 61–64; no read-side critical section
			prevSucc = succ // needed: traversed keys don't steer the walk
			succ = next
			next = next.child[left].Load()
		}
		succDir := right // line 65
		if curr != prevSucc {
			succDir = left
			tc.lock(&prevSucc.mu, citrustrace.SiteDeleteSuccParent) // line 67: do not lock twice
		}
		tc.lock(&succ.mu, citrustrace.SiteDeleteSucc) // line 68

		if validate(prevSucc, 0, succ, succDir) &&
			validate(succ, succ.tag[left].Load(), nil, left) { // line 69
			// line 70: new node with succ's key/value and curr's children.
			n := newNode(succ.key, succ.value)
			n.child[left].Store(currLeft)
			n.child[right].Store(currRight)
			n.mu.Lock()              // line 71
			curr.marked = true       // line 72
			prev.child[dir].Store(n) // line 73
			// Torture window: the copy is published and curr is marked,
			// but the grace period of line 74 has not begun — searches
			// suspended at the old successor position are still walking.
			schedpoint.Hit(schedpoint.CoreMarkToGrace)
			var w0 time.Time
			if tc != nil {
				w0 = time.Now()
			}
			if done, err := b.synchronize(h.t.flavor); err != nil { // line 74
				// The delete has linearized (the copy is published, curr
				// unlinked); only the old successor's unlink and the lock
				// releases remain, and they must not run before the grace
				// period ends. Hand them to a background goroutine and
				// release the caller with the typed timeout. All
				// owner-written accounting and tracing happens here, on
				// the owning goroutine.
				h.ops.deletes.inc()
				h.ops.twoChildDeletes.inc()
				h.ops.deleteTimeouts.inc()
				tc.syncWait(w0)
				tc.retired(2)
				tc.end(citrustrace.EvDelete, 2)
				t := h.t
				go func() {
					<-done
					t.completeTwoChildDelete(prev, curr, prevSucc, succ, n)
				}()
				return true, rcu.GracePeriodTimeout(err)
			}
			tc.syncWait(w0)
			h.t.completeTwoChildDelete(prev, curr, prevSucc, succ, n) // lines 75–82
			h.ops.deletes.inc()
			h.ops.twoChildDeletes.inc() // one inline grace period (line 74)
			tc.retired(2)
			tc.end(citrustrace.EvDelete, 2)
			return true, nil // line 83
		}

		// line 84: validation failed, release locks and retry.
		succ.mu.Unlock()
		if curr != prevSucc {
			prevSucc.mu.Unlock()
		}
		curr.mu.Unlock()
		prev.mu.Unlock()
		h.ops.deleteRetries.inc()
		tc.validateFail(citrustrace.SiteValidateDeleteSucc)
	}
}

// completeTwoChildDelete finishes a two-child delete after its grace
// period has elapsed (the paper's lines 75–82): remove the old
// successor, publish the tag increment, release all locks, and retire
// the two unlinked nodes. Factored out so a DeleteCtx whose caller
// abandoned the grace-period wait can finish on a background goroutine
// (Go mutexes may be unlocked by a goroutine other than the locker).
func (t *Tree[K, V]) completeTwoChildDelete(prev, curr, prevSucc, succ, n *node[K, V]) {
	succ.marked = true // line 75: remove the old successor
	succRight := succ.child[right].Load()
	if prevSucc == curr { // line 76: succ is the right child of curr
		n.child[right].Store(succRight) // line 77
		incrementTag(n, right)          // line 78
	} else {
		prevSucc.child[left].Store(succRight) // line 80
		incrementTag(prevSucc, left)          // line 81
	}
	// line 82: release all locks.
	n.mu.Unlock()
	succ.mu.Unlock()
	if curr != prevSucc {
		prevSucc.mu.Unlock()
	}
	curr.mu.Unlock()
	prev.mu.Unlock()
	t.retire(curr)
	t.retire(succ)
}
