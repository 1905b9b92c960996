package core

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/go-citrus/citrus/rcu"
)

// ascendingPairs returns n keys 0, 2, 4, … and their values k+1.
func ascendingPairs(n int) ([]int, []int) {
	keys, values := make([]int, n), make([]int, n)
	for i := range keys {
		keys[i], values[i] = 2*i, 2*i+1
	}
	return keys, values
}

// TestGraftBuildsBalancedTree: a graft of n ascending pairs builds a
// tree holding exactly them, of height ⌈log2(n+1)⌉, with the structural
// invariants intact and n inserts counted.
func TestGraftBuildsBalancedTree(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 1000, 1<<15 - 1, 30000} {
		tr := NewTree[int, int](rcu.NewDomain())
		keys, values := ascendingPairs(n)
		if err := tr.Graft(keys, values); err != nil {
			t.Fatalf("n=%d: Graft: %v", n, err)
		}
		if h := tr.Height(); h != bits.Len(uint(n)) {
			t.Errorf("n=%d: height %d, want %d", n, h, bits.Len(uint(n)))
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !slices.Equal(tr.Keys(), keys) {
			t.Fatalf("n=%d: the tree's keys are not the grafted keys", n)
		}
		if got := tr.Stats().Inserts; got != int64(n) {
			t.Errorf("n=%d: Stats().Inserts = %d, want %d", n, got, n)
		}
		h := tr.NewHandle()
		for i, k := range keys {
			if v, ok := h.Contains(k); !ok || v != values[i] {
				t.Fatalf("n=%d: Contains(%d) = (%d, %v), want (%d, true)", n, k, v, ok, values[i])
			}
			if _, ok := h.Contains(k + 1); ok {
				t.Fatalf("n=%d: Contains(%d) found a key never grafted", n, k+1)
			}
		}
		h.Close()
	}
}

// TestGraftRefuses: a graft onto a tree holding a key returns an error
// and links nothing; an empty graft does nothing.
func TestGraftRefuses(t *testing.T) {
	tr := NewTree[int, int](rcu.NewDomain())
	if err := tr.Graft(nil, nil); err != nil {
		t.Errorf("Graft of nothing = %v, want nil", err)
	}
	if !tr.Empty() || tr.Stats().Inserts != 0 {
		t.Fatalf("an empty graft changed the tree: keys %v, %d inserts", tr.Keys(), tr.Stats().Inserts)
	}

	h := tr.NewHandle()
	defer h.Close()
	h.Insert(100, 100)
	keys, values := ascendingPairs(50)
	if err := tr.Graft(keys, values); err == nil {
		t.Fatal("Graft onto a tree holding a key = nil, want an error")
	}
	if err := tr.Graft(nil, nil); err != nil {
		t.Errorf("Graft of nothing onto a tree holding a key = %v, want nil", err)
	}
	if got := tr.Keys(); !slices.Equal(got, []int{100}) || tr.Stats().Inserts != 1 {
		t.Fatalf("a refused graft changed the tree: keys %v, %d inserts", got, tr.Stats().Inserts)
	}
}

// TestGraftFailsStaleInsertValidation replays deterministically the race
// the graft's lock settles: an insert searched the empty tree, the graft
// linked its subtree, and only then did the insert lock the +∞ sentinel.
// The insert's validation must fail (its nil link is gone), and its
// retry must find the key's place inside the grafted subtree.
func TestGraftFailsStaleInsertValidation(t *testing.T) {
	tr := NewTree[int, int](rcu.NewDomain())
	h := tr.NewHandle()
	defer h.Close()
	prev, tag, curr, dir := h.get(501)
	if curr != nil || prev.kind != kindPosInf {
		t.Fatal("a search of the empty tree did not end at the +∞ sentinel's nil link")
	}
	keys, values := ascendingPairs(1000)
	if err := tr.Graft(keys, values); err != nil {
		t.Fatal(err)
	}
	if h.link(nil, prev, tag, dir, 501, 501) {
		t.Fatal("an insert validated against the nil link the graft replaced")
	}
	if !h.Insert(501, 501) {
		t.Fatal("the retried insert found 501 present")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats(); got.Inserts != 1001 || got.InsertRetries != 1 {
		t.Fatalf("Stats: %d inserts, %d insert retries; want 1001 and 1", got.Inserts, got.InsertRetries)
	}
	if v, ok := h.Contains(501); !ok || v != 501 || tr.Height() > bits.Len(1000)+1 {
		t.Fatalf("Contains(501) = (%d, %v), height %d", v, ok, tr.Height())
	}
}

// TestGraftConcurrent runs grafts against readers and a racing insert.
// A reader that finds the last grafted key must also find the first —
// the subtree appears whole — and the insert either reaches the empty
// tree first, so the graft is refused, or finds its place in the
// grafted tree. Run it under -race.
func TestGraftConcurrent(t *testing.T) {
	const n, rounds = 2000, 200
	keys, values := ascendingPairs(n)
	first, last := keys[0], keys[n-1]
	var refused, grafted int
	for round := 0; round < rounds; round++ {
		tr := NewTree[int, int](rcu.NewDomain())
		var done atomic.Bool
		var wg sync.WaitGroup
		start := make(chan struct{})
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h := tr.NewHandle()
				defer h.Close()
				<-start
				for !done.Load() {
					if _, ok := h.Contains(last); ok {
						if _, ok := h.Contains(first); !ok {
							t.Error("a reader found the last grafted key but not the first")
							return
						}
					}
				}
			}()
		}
		const racer = 1001 // odd: never grafted
		var inserted atomic.Bool
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := tr.NewHandle()
			defer h.Close()
			<-start
			inserted.Store(h.Insert(racer, racer))
		}()
		close(start)
		err := tr.Graft(keys, values)
		done.Store(true)
		wg.Wait()

		if !inserted.Load() {
			t.Fatal("the racing insert found its key present")
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		want := []int{racer}
		if err != nil {
			refused++
		} else {
			grafted++
			want = slices.Sorted(slices.Values(append(slices.Clone(keys), racer)))
		}
		if got := tr.Keys(); !slices.Equal(got, want) {
			t.Fatalf("graft err=%v: the tree holds %d keys, want %d", err, len(got), len(want))
		}
		if got := tr.Stats().Inserts; got != int64(len(want)) {
			t.Fatalf("graft err=%v: Stats().Inserts = %d, want %d", err, got, len(want))
		}
	}
	t.Logf("%d rounds: graft refused %d times, grafted %d times", rounds, refused, grafted)
}
