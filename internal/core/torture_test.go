package core

import (
	"testing"

	"github.com/go-citrus/citrus/rcu"
)

// stampOracle is a minimal Auditor for white-box tests: a Domain whose
// retirements go through a reclaimer, counting stamps and checks and
// keeping the tree's poison-trip count.
type stampOracle struct {
	*rcu.Domain
	rec    *rcu.Reclaimer
	stamps int
	checks int
	trips  func() int64
}

func (o *stampOracle) RetireStamp() uint64 {
	o.stamps++
	return uint64(o.stamps)
}

func (o *stampOracle) CheckReclaim(uint64) error {
	o.checks++
	return nil
}

func (o *stampOracle) TryDefer(fn func()) bool  { return o.rec.TryDefer(fn) }
func (o *stampOracle) Watch(trips func() int64) { o.trips = trips }

// TestPoisonSwingsChildrenAndCountsTrips: after a deleted node's grace
// period, poison mode swings its child links to the sentinel; a search
// step walking through the stale node lands on the sentinel and is
// counted as a trip.
func TestPoisonSwingsChildrenAndCountsTrips(t *testing.T) {
	orc := &stampOracle{Domain: rcu.NewDomain()}
	orc.rec = rcu.NewReclaimer(orc.Domain)
	defer orc.rec.Close()
	tr := NewTree[int, int](orc)

	h := tr.NewHandle()
	defer h.Close()
	for _, k := range []int{10, 5, 15} {
		h.Insert(k, k)
	}
	// Hold the node for 5 the way a suspended search would.
	inf := tr.root.child[right].Load()
	n10 := inf.child[left].Load()
	n5 := n10.child[left].Load()
	if n5.key != 5 {
		t.Fatalf("layout: expected 5, got %d", n5.key)
	}
	if !h.Delete(5) {
		t.Fatal("Delete(5) = false")
	}
	orc.rec.Barrier() // grace period + reclaim callbacks have run

	if orc.stamps != 1 || orc.checks != 1 {
		t.Fatalf("oracle saw %d stamps, %d checks; want 1, 1", orc.stamps, orc.checks)
	}
	if got := n5.child[left].Load(); got == nil || got.kind != kindPoisoned {
		t.Fatalf("reclaimed node's left child = %v, want the poison sentinel", got)
	}
	if orc.trips() != 0 {
		t.Fatalf("poison trips = %d before any stale walk, want 0", orc.trips())
	}
	// A stale reader stepping through n5 reaches the sentinel and
	// compares against it — that is the violation observation.
	stale := n5.child[left].Load()
	if c := stale.compareKey(7); c != -1 {
		t.Fatalf("poison sentinel compareKey = %d, want -1", c)
	}
	if got := orc.trips(); got != 1 {
		t.Fatalf("poison trips = %d after a stale walk, want 1", got)
	}
	// The sentinel dead-ends: both children nil, so searches terminate.
	if stale.child[left].Load() != nil || stale.child[right].Load() != nil {
		t.Fatal("poison sentinel has children; searches through it would not terminate")
	}
	// The live tree is untouched.
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants after poisoned delete: %v", err)
	}
	if _, ok := h.Contains(10); !ok {
		t.Fatal("key 10 lost")
	}
}

// TestMutantIgnoreTagsDisablesLine38: validate with a stale tag fails
// on the correct build and passes under the mutant — the white-box pin
// that TestTagDefeatsABA's negative control relies on.
func TestMutantIgnoreTagsDisablesLine38(t *testing.T) {
	n := &node[int, int]{key: 10}
	n.tag[left].Add(2) // the slot was filled and emptied since the tag was read
	staleTag := uint64(0)
	if validate(n, staleTag, nil, left) {
		t.Fatal("correct validate accepted a stale tag")
	}
	SetMutant(MutantIgnoreTags)
	defer SetMutant(MutantNone)
	if !validate(n, staleTag, nil, left) {
		t.Fatal("MutantIgnoreTags still rejects stale tags; the mutant is not wired through validate")
	}
	// The other validate clauses stay intact under the mutant.
	n.marked = true
	if validate(n, staleTag, nil, left) {
		t.Fatal("mutant disabled the marked check too; it must only skip line 38")
	}
}
