package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/go-citrus/citrus/rcu"
)

// TestBoundedTwoChildDelete bounds the grace period of a two-child
// delete (line 74) that a parked reader holds open, through both bounded
// entry points: DeleteCtx with a context deadline and DeleteWithin with
// a duration. The delete returns at its bound having taken effect, its
// cleanup lands once the reader leaves, and a delete whose bound passes
// while it waits on that cleanup's locks returns without deleting.
func TestBoundedTwoChildDelete(t *testing.T) {
	const bound = 25 * time.Millisecond
	for _, tc := range []struct {
		name string
		del  func(h *Handle[int, int], key int, deadline time.Time) (bool, error)
	}{
		{"DeleteCtx", func(h *Handle[int, int], key int, deadline time.Time) (bool, error) {
			ctx, cancel := context.WithDeadline(context.Background(), deadline)
			defer cancel()
			return h.DeleteCtx(ctx, key)
		}},
		{"DeleteWithin", func(h *Handle[int, int], key int, deadline time.Time) (bool, error) {
			return h.DeleteWithin(key, time.Until(deadline))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dom := rcu.NewDomain()
			tr := NewTree[int, int](dom)
			h, other := tr.NewHandle(), tr.NewHandle()
			defer h.Close()
			defer other.Close()
			for _, k := range []int{2, 1, 3, 4} {
				h.Insert(k, k)
			}
			reader := dom.Register()
			defer reader.Unregister()
			reader.ReadLock()
			parked := true
			defer func() {
				if parked {
					reader.ReadUnlock()
				}
			}()

			// 2 has two children: its delete publishes a copy of its
			// successor 3 in its place, then waits for the parked reader.
			start := time.Now()
			ok, err := tc.del(h, 2, start.Add(bound))
			if waited := time.Since(start); waited > 20*bound {
				t.Fatalf("the bounded delete returned after %v; its bound was %v", waited, bound)
			}
			if !ok || !errors.Is(err, rcu.ErrGracePeriodTimeout) || !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Delete(2) under a parked reader = (%v, %v), want true and a grace-period timeout", ok, err)
			}
			if _, found := h.Contains(2); found {
				t.Fatal("Get(2) hits after the delete took effect")
			}
			if n := tr.Stats().DeleteTimeouts; n != 1 {
				t.Fatalf("DeleteTimeouts = %d, want 1", n)
			}

			// Delete(4) finds 4 under the old successor 3, which the
			// pending cleanup holds locked, and waits there past its
			// bound. The cleanup unlinks the old 3, so the delete's
			// validation fails, and its retry finds the bound passed
			// before it searches again.
			deadline := time.Now().Add(bound)
			type result struct {
				ok  bool
				err error
			}
			res := make(chan result, 1)
			go func() {
				ok, err := tc.del(other, 4, deadline)
				res <- result{ok, err}
			}()
			time.Sleep(time.Until(deadline) + bound)
			reader.ReadUnlock()
			parked = false
			select {
			case r := <-res:
				if r.ok || !errors.Is(r.err, context.DeadlineExceeded) || errors.Is(r.err, rcu.ErrGracePeriodTimeout) {
					t.Fatalf("Delete(4) past its bound = (%v, %v), want (false, context.DeadlineExceeded)", r.ok, r.err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Delete(4) still blocked 5s after the reader left: the cleanup never released its locks")
			}

			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after the cleanup: %v", err)
			}
			if _, found := h.Contains(4); !found {
				t.Fatal("Delete(4) returned false, yet 4 is gone")
			}
			done := make(chan bool, 1)
			go func() { done <- h.Delete(3) && h.Insert(2, 2) }()
			select {
			case ok := <-done:
				if !ok {
					t.Fatal("Delete(3) or Insert(2) failed after the cleanup")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Delete(3) and Insert(2) still blocked 5s after the cleanup")
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}

	// A context whose deadline has passed before the first search
	// deletes nothing. (DeleteWithin measures its bound from the call,
	// and a d ≤ 0 means no bound, so its clock is first seen passed
	// between retries, as above.)
	tr, h := newIntTree(t)
	h.Insert(2, 2)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if ok, err := h.DeleteCtx(ctx, 2); ok || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("DeleteCtx past its deadline = (%v, %v), want (false, context.DeadlineExceeded)", ok, err)
	}
	if _, found := h.Contains(2); !found || tr.Stats().Deletes != 0 {
		t.Fatal("DeleteCtx past its deadline changed the tree")
	}
}
