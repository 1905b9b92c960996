package core

import (
	"sync"
	"testing"
	"time"

	"github.com/go-citrus/citrus/rcu"
)

// TestValidateDirect exercises the paper's validate (lines 33–38) on
// hand-built states, one clause at a time.
func TestValidateDirect(t *testing.T) {
	parent := newNode(10, 0)
	child := newNode(5, 0)
	parent.child[left].Store(child)

	if !validate(parent, 0, child, left) {
		t.Fatal("intact parent-child link failed validation")
	}
	if validate(parent, 0, child, right) {
		t.Fatal("wrong direction passed validation")
	}
	if validate(parent, 0, nil, left) {
		t.Fatal("nil curr passed while a child is linked")
	}

	// Marked parent (line 34).
	parent.marked = true
	if validate(parent, 0, child, left) {
		t.Fatal("marked parent passed validation")
	}
	parent.marked = false

	// Marked child (lines 36–37).
	child.marked = true
	if validate(parent, 0, child, left) {
		t.Fatal("marked child passed validation")
	}
	child.marked = false

	// Tag check for nil links (line 38).
	if !validate(parent, 0, nil, right) {
		t.Fatal("nil link with matching tag failed validation")
	}
	parent.tag[right].Add(1)
	if validate(parent, 0, nil, right) {
		t.Fatal("stale tag passed validation")
	}
	if !validate(parent, 1, nil, right) {
		t.Fatal("current tag failed validation")
	}
}

// TestTagDefeatsABA stages the interleaving the line-38 tag exists for
// (Lemma 3, Figure 5). Insert(11) searches 10 → 15 and stops before it
// locks, holding (prev 15, left, tag) with 15.left nil. Meanwhile 12 is
// inserted as 15.left and 10 is deleted: 10 has two children, so its
// successor 12 is copied up into its place and the old 12 unlinked,
// leaving 15.left nil again — but 15 now sits right of 12, where 11
// does not belong, and only the bumped tag tells. On the correct
// algorithm the resumed link attempt fails validation and the retried
// insert links 11 under 5; under MutantIgnoreTags it links 11 under
// 15, breaking BST order so that Get(11) misses.
func TestTagDefeatsABA(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutant Mutant
	}{{"correct", MutantNone}, {"ignoretags", MutantIgnoreTags}} {
		t.Run(tc.name, func(t *testing.T) {
			SetMutant(tc.mutant)
			defer SetMutant(MutantNone)
			tr := NewTree[int, int](rcu.NewDomain())
			stale, other := tr.NewHandle(), tr.NewHandle()
			defer stale.Close()
			defer other.Close()
			for _, k := range []int{10, 5, 15} {
				other.Insert(k, k)
			}

			prev, tag, curr, dir := stale.get(11) // Insert(11)'s search
			if curr != nil || prev.key != 15 || dir != left {
				t.Fatalf("search for 11 ended at (%v, dir %d, found %v), want 15.left, not found", prev.key, dir, curr != nil)
			}
			other.Insert(12, 12) // fills 15.left
			other.Delete(10)     // moves 12 up: 15.left is nil again
			if prev.child[left].Load() != nil {
				t.Fatal("15.left is not empty again after the delete")
			}

			linked := stale.link(nil, prev, tag, dir, 11, 11) // Insert(11) resumes
			if !linked {
				stale.Insert(11, 11) // the retry: search again, link again
			}
			_, found := stale.Contains(11)
			err := tr.CheckInvariants()
			if tc.mutant == MutantNone {
				if linked {
					t.Fatal("the stale link attempt validated: the tag did not catch the ABA")
				}
				if err != nil || !found {
					t.Fatalf("after the retried insert: invariants %v, Get(11) found %v", err, found)
				}
				top := tr.root.child[right].Load().child[left].Load() // the copy of 12
				if n11 := top.child[left].Load().child[right].Load(); n11 == nil || n11.key != 11 {
					t.Fatal("11 is not 5's right child")
				}
				return
			}
			if !linked || prev.child[left].Load() == nil || prev.child[left].Load().key != 11 {
				t.Fatal("under MutantIgnoreTags the stale attempt did not link 11 under 15")
			}
			if err == nil || found {
				t.Fatalf("under MutantIgnoreTags: invariants %v, Get(11) found %v; want a BST order violation and a miss", err, found)
			}
		})
	}
}

// TestConcurrentDeletersSameKey: exactly one of many deleters of the
// same key may win each round.
func TestConcurrentDeletersSameKey(t *testing.T) {
	tr := NewTree[int, int](rcu.NewDomain())
	seed := tr.NewHandle()
	for _, k := range []int{50, 25, 75, 10, 30, 60, 90} {
		seed.Insert(k, k)
	}
	seed.Close()

	const rounds = 200
	for r := 0; r < rounds; r++ {
		var wins int32
		var mu sync.Mutex
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := tr.NewHandle()
				defer h.Close()
				if h.Delete(50) {
					mu.Lock()
					wins++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if wins != 1 {
			t.Fatalf("round %d: %d deleters succeeded, want exactly 1", r, wins)
		}
		h := tr.NewHandle()
		if !h.Insert(50, 50) {
			t.Fatalf("round %d: reinsert failed", r)
		}
		h.Close()
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteBlocksOnlyDeleters: while a two-child delete sits in its
// grace period (blocked by a reader), other *readers* must keep
// completing wait-free; only the structure under the held locks is
// off-limits to writers.
func TestDeleteBlocksOnlyDeleters(t *testing.T) {
	dom := rcu.NewDomain()
	tr := NewTree[int, int](dom)
	w := tr.NewHandle()
	defer w.Close()
	for _, k := range []int{50, 25, 75, 60, 90, 10, 30} {
		w.Insert(k, k)
	}

	blocker := dom.Register()
	blocker.ReadLock()

	delDone := make(chan struct{})
	go func() {
		defer close(delDone)
		h := tr.NewHandle()
		defer h.Close()
		h.Delete(50) // two children → grace period → blocked by blocker
	}()

	// Wait until the copy is published (the delete is inside line 74).
	deadline := time.Now().Add(2 * time.Second)
	for tr.root.child[right].Load().child[left].Load().key != 60 {
		if time.Now().After(deadline) {
			t.Fatal("successor copy never published")
		}
		time.Sleep(time.Millisecond)
	}

	// Reads anywhere still complete.
	h := tr.NewHandle()
	for _, k := range []int{10, 25, 30, 60, 75, 90} {
		if _, ok := h.Contains(k); !ok {
			t.Fatalf("Contains(%d) failed during another delete's grace period", k)
		}
	}
	// Updates in untouched regions also complete (10's subtree is not
	// locked by the delete).
	if !h.Insert(5, 5) {
		t.Fatal("unrelated insert failed during grace period")
	}
	if !h.Delete(5) {
		t.Fatal("unrelated delete failed during grace period")
	}
	h.Close()

	select {
	case <-delDone:
		t.Fatal("delete finished while the blocking reader was still inside")
	default:
	}
	blocker.ReadUnlock()
	<-delDone
	blocker.Unregister()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
