package torture

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/go-citrus/citrus/internal/core"
	"github.com/go-citrus/citrus/rcu"
)

// TestOracleFlagsReclaimInsideStaleCS: the deterministic core of the
// NoSync negative control. A reader enters its critical section, a node
// is retired after that entry, and the (neutered) grace period lets the
// reclamation check run while the reader is still inside — the oracle
// must flag it.
func TestOracleFlagsReclaimInsideStaleCS(t *testing.T) {
	o := NewOracle(rcu.NoSync(rcu.NewDomain()))
	defer o.Close()
	r := o.Register()
	defer r.Unregister()

	r.ReadLock()
	stamp := o.RetireStamp() // node retired while the reader is inside
	o.Synchronize()          // neutered: returns immediately
	if err := o.CheckReclaim(stamp); err == nil {
		t.Fatal("oracle missed a reclamation inside a stale critical section")
	}
	r.ReadUnlock()

	if o.Violations() != 1 {
		t.Fatalf("Violations = %d, want 1", o.Violations())
	}
	if o.FirstViolation() == nil {
		t.Fatal("FirstViolation = nil after a flagged reclamation")
	}
	if o.Checks() != 1 {
		t.Fatalf("Checks = %d, want 1", o.Checks())
	}
}

// TestOracleNoFalsePositiveAfterRealSync: with a working Synchronize
// between retirement and reclamation, the pre-existing reader has left
// its critical section by check time, so the oracle stays silent.
func TestOracleNoFalsePositiveAfterRealSync(t *testing.T) {
	o := NewOracle(rcu.NewDomain())
	defer o.Close()
	r := o.Register()
	defer r.Unregister()

	r.ReadLock()
	stamp := o.RetireStamp()
	done := make(chan struct{})
	go func() {
		o.Synchronize() // blocks until r leaves its section
		if err := o.CheckReclaim(stamp); err != nil {
			t.Errorf("false positive after a real grace period: %v", err)
		}
		close(done)
	}()
	r.ReadUnlock()
	<-done

	if o.Violations() != 0 {
		t.Fatalf("Violations = %d, want 0", o.Violations())
	}
}

// TestOracleIgnoresLaterReaders: a reader that enters its critical
// section after the retirement cannot hold a reference to the retired
// node, so it must not be flagged even though it is inside a section at
// check time.
func TestOracleIgnoresLaterReaders(t *testing.T) {
	o := NewOracle(rcu.NoSync(rcu.NewDomain()))
	defer o.Close()
	r := o.Register()
	defer r.Unregister()

	stamp := o.RetireStamp()
	r.ReadLock() // enters at an epoch >= stamp
	defer r.ReadUnlock()
	if err := o.CheckReclaim(stamp); err != nil {
		t.Fatalf("oracle flagged a reader that entered after retirement: %v", err)
	}
}

// TestOracleUnregisterForgetsReader: an unregistered reader's last
// entry stamp must not haunt later checks.
func TestOracleUnregisterForgetsReader(t *testing.T) {
	o := NewOracle(rcu.NoSync(rcu.NewDomain()))
	defer o.Close()
	r := o.Register()
	r.ReadLock()
	stamp := o.RetireStamp()
	r.ReadUnlock()
	r.Unregister()

	if err := o.CheckReclaim(stamp); err != nil {
		t.Fatalf("unregistered reader flagged: %v", err)
	}
}

// TestOracleEndToEndNoSyncTree is the whole tentpole in one
// deterministic test, in the style of core's mutation tests: a tree on
// a NoSync flavor (shadowed by the oracle, which puts it in torture
// mode) retires a node while a hand-suspended reader's critical section
// still spans it, and the oracle records the violation.
func TestOracleEndToEndNoSyncTree(t *testing.T) {
	o := NewOracle(rcu.NoSync(rcu.NewDomain()))
	defer o.Close()
	tr := core.NewTree[int, int](o)

	h := tr.NewHandle()
	defer h.Close()
	for _, k := range []int{10, 5, 15} {
		h.Insert(k, k)
	}

	// A reader suspended mid-search: critical section open, then a
	// delete retires a node, then the (absent) grace period "elapses".
	reader := o.Register()
	defer reader.Unregister()
	reader.ReadLock()

	h2 := tr.NewHandle()
	defer h2.Close()
	if !h2.Delete(5) {
		t.Fatal("Delete(5) = false")
	}
	o.Barrier() // flush the reclaim callback; NoSync makes it immediate

	reader.ReadUnlock()

	violations, first := o.Report()
	if violations == 0 || first == nil {
		t.Fatalf("Report = (%d, %v); the NoSync reclamation inside an open critical section went unflagged", violations, first)
	}
	if o.Violations() == 0 {
		t.Fatal("oracle recorded no violations")
	}
}

// TestOracleEndToEndRealDomainClean: the same wiring on a real Domain
// stays silent — the no-false-positive half of the negative control.
func TestOracleEndToEndRealDomainClean(t *testing.T) {
	o := NewOracle(rcu.NewDomain())
	defer o.Close()
	tr := core.NewTree[int, int](o)

	h := tr.NewHandle()
	defer h.Close()
	for k := 0; k < 32; k++ {
		h.Insert(k, k)
	}
	for k := 0; k < 32; k += 2 {
		h.Delete(k)
	}
	o.Barrier()

	if v, first := o.Report(); v != 0 {
		t.Fatalf("violations on a correct flavor: %d (%v)", v, first)
	}
	if o.Checks() == 0 {
		t.Fatal("oracle saw no reclamations; the wiring is dead")
	}
	if trips := o.PoisonTrips(); trips != 0 {
		t.Fatalf("PoisonTrips = %d on a correct flavor, want 0", trips)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestOracleGraftedTreeDeletes: a tree grafted whole on the oracle
// (core.Tree.Graft) takes deletes — two-child ones among them, whose
// grace periods readers hold open — with no reclamation violation, no
// poison trip and no miss of a key that stays.
func TestOracleGraftedTreeDeletes(t *testing.T) {
	o := NewOracle(rcu.NewDomain())
	defer o.Close()
	tr := core.NewTree[int, int](o)
	const n = 1023
	keys, values := make([]int, n), make([]int, n)
	for i := range keys {
		keys[i], values[i] = i, i
	}
	if err := tr.Graft(keys, values); err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := tr.NewHandle()
			defer h.Close()
			for i := 0; !done.Load(); i = (i + 2) % (n + 1) {
				if _, ok := h.Contains(i); !ok { // even keys, the leaves, stay
					t.Errorf("Contains(%d) missed a key that stays", i)
					return
				}
			}
		}()
	}
	h := tr.NewHandle()
	for i := 0; i < n; i++ {
		if k := i * 37 % n; k%2 == 1 && !h.Delete(k) {
			t.Errorf("Delete(%d) = false", k)
		}
	}
	h.Close()
	done.Store(true)
	wg.Wait()
	o.Barrier()

	if v, first := o.Report(); v != 0 {
		t.Fatalf("a grafted tree's deletes failed the oracle: %d (%v)", v, first)
	}
	st := tr.Stats()
	if o.Checks() == 0 || st.TwoChildDeletes == 0 {
		t.Fatalf("%d reclamations checked, %d two-child deletes; the test exercised nothing", o.Checks(), st.TwoChildDeletes)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Len(); got != n/2+1 || st.Inserts-st.Deletes != n/2+1 {
		t.Fatalf("%d keys left (inserts − deletes = %d), want %d", got, st.Inserts-st.Deletes, n/2+1)
	}
}
