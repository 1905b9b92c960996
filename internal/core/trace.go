package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/go-citrus/citrus/citrustrace"
	"github.com/go-citrus/citrus/internal/schedpoint"
	"github.com/go-citrus/citrus/rcu"
)

// Event tracing.
//
// The tree holds one atomic recorder pointer; every operation loads it
// once, so with tracing disabled the hot paths pay a single predictable
// branch and allocate nothing (there is a test pinning both). With
// tracing enabled, each handle records into its own ring — single
// writer, like the op counters — labelled with the handle's RCU reader
// id so that grace-period waits in the domain's ring (EvReaderWait,
// keyed by the same id) are attributable to the handle whose read-side
// critical sections they waited on.

// SetTracer attaches rec as the tree's flight recorder; nil detaches.
// Safe to toggle at any time, concurrently with operations and with
// trace dumps: operations already in flight finish recording into the
// recorder they started with.
func (t *Tree[K, V]) SetTracer(rec *citrustrace.Recorder) { t.tracer.Store(rec) }

// Tracer reports the currently attached flight recorder, nil when
// tracing is disabled.
func (t *Tree[K, V]) Tracer() *citrustrace.Recorder { return t.tracer.Load() }

// Flavor reports the tree's RCU flavor (shared by all of its handles).
func (t *Tree[K, V]) Flavor() rcu.Flavor { return t.flavor }

// opTrace is the per-operation trace context. A nil *opTrace means
// tracing is disabled; all its methods are nil-safe so call sites stay
// unconditional. The struct itself lives inside the Handle (one op at a
// time per handle, by contract), so tracing allocates nothing per op.
type opTrace struct {
	ring    *citrustrace.Ring
	start   time.Time
	retries uint64
}

// traceStart begins tracing one operation, returning nil when tracing
// is disabled. On a handle's first traced operation under a given
// recorder it registers the handle's ring.
func (h *Handle[K, V]) traceStart() *opTrace {
	rec := h.t.tracer.Load()
	if rec == nil {
		return nil
	}
	if h.ringRec != rec {
		label := "handle"
		if ider, ok := h.r.(interface{ ID() uint64 }); ok {
			label = fmt.Sprintf("reader-%d", ider.ID())
		}
		h.ring = rec.NewRing(label)
		h.ringRec = rec
	}
	h.tc = opTrace{ring: h.ring, start: time.Now()}
	return &h.tc
}

// lock acquires mu, recording an EvLockWait span if the lock was
// contended. With tc nil it is a plain Lock.
func (tc *opTrace) lock(mu *sync.Mutex, site uint64) {
	if tc == nil {
		mu.Lock()
		return
	}
	if mu.TryLock() {
		return
	}
	w0 := time.Now()
	mu.Lock()
	tc.ring.Record(citrustrace.EvLockWait, w0, time.Since(w0), site, 0, 0)
}

// validateFail records a post-lock validation failure (the operation
// will retry).
func (tc *opTrace) validateFail(site uint64) {
	if tc == nil {
		return
	}
	tc.retries++
	tc.ring.Record(citrustrace.EvValidateFail, time.Now(), 0, site, 0, 0)
}

// syncWait records the span this operation spent inside
// flavor.Synchronize (the paper's line 74). The caller captures w0 just
// before the call, gated on tc != nil.
func (tc *opTrace) syncWait(w0 time.Time) {
	if tc == nil {
		return
	}
	tc.ring.Record(citrustrace.EvSyncWait, w0, time.Since(w0), 0, 0, 0)
}

// retired records that the operation unlinked n nodes, which are left
// to the GC.
func (tc *opTrace) retired(n uint64) {
	if tc == nil {
		return
	}
	tc.ring.Record(citrustrace.EvRetire, time.Now(), 0, n, 0, 0)
}

// end closes the operation span. outcome is the event's A argument;
// accumulated validation retries ride along as B.
func (tc *opTrace) end(t citrustrace.EventType, outcome uint64) {
	if tc == nil {
		return
	}
	tc.ring.Record(t, tc.start, time.Since(tc.start), outcome, tc.retries, 0)
}

// containsTraced is Contains with operation-span recording; kept off
// the untraced path so the wait-free lookup keeps its exact shape when
// tracing is disabled. The search mirrors Contains line for line
// (including reading the value inside the read-side critical section).
func (h *Handle[K, V]) containsTraced(key K) (V, bool) {
	tc := h.traceStart()
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
	var v V
	found := curr != nil
	if found {
		v = curr.value // inside the critical section, as in Contains
	}
	r.ReadUnlock()
	var outcome uint64
	if found {
		outcome = 1
	}
	tc.end(citrustrace.EvContains, outcome)
	return v, found
}
