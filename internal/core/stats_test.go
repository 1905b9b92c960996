package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/go-citrus/citrus/rcu"
)

// TestHandleCloseIdempotent is the regression test for the handle
// lifecycle bug: a second Close used to crash inside
// rcu.Handle.Unregister with a raw nil-pointer dereference.
func TestHandleCloseIdempotent(t *testing.T) {
	tr := NewTree[int, int](rcu.NewDomain())
	h := tr.NewHandle()
	h.Insert(1, 1)
	h.Close()
	h.Close() // must be a no-op
	h.Close()
}

// TestHandleUseAfterClosePanicsDescriptively: operations on a closed
// handle used to die with an opaque nil dereference; they must name the
// misuse instead.
func TestHandleUseAfterClosePanicsDescriptively(t *testing.T) {
	tr := NewTree[int, int](rcu.NewDomain())
	ops := map[string]func(h *Handle[int, int]){
		"Contains": func(h *Handle[int, int]) { h.Contains(1) },
		"Insert":   func(h *Handle[int, int]) { h.Insert(1, 1) },
		"Delete":   func(h *Handle[int, int]) { h.Delete(1) },
	}
	for name, op := range ops {
		h := tr.NewHandle()
		h.Close()
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s after Close did not panic", name)
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "Handle used after Close") {
					t.Fatalf("%s after Close panicked with %v, want descriptive message", name, r)
				}
			}()
			op(h)
		}()
	}
}

func TestTreeStatsCountsOperations(t *testing.T) {
	tr := NewTree[int, int](rcu.NewDomain())
	h := tr.NewHandle()
	defer h.Close()

	// Build 2 with both children, then delete it: a successor-relocation
	// delete with exactly one inline grace period.
	h.Insert(2, 2)
	h.Insert(1, 1)
	h.Insert(3, 3)
	h.Insert(2, 9) // exists
	h.Contains(1)
	h.Contains(42) // miss still counts as a Contains call
	h.Delete(2)    // two children
	h.Delete(2)    // miss
	h.Delete(1)    // leaf

	s := tr.Stats()
	if s.Inserts != 3 || s.InsertExisting != 1 {
		t.Fatalf("Inserts=%d InsertExisting=%d, want 3/1", s.Inserts, s.InsertExisting)
	}
	if s.Contains != 2 {
		t.Fatalf("Contains=%d, want 2", s.Contains)
	}
	if s.Deletes != 2 || s.DeleteMisses != 1 {
		t.Fatalf("Deletes=%d DeleteMisses=%d, want 2/1", s.Deletes, s.DeleteMisses)
	}
	if s.TwoChildDeletes != 1 {
		t.Fatalf("TwoChildDeletes=%d, want 1", s.TwoChildDeletes)
	}
	if s.InsertRetries != 0 || s.DeleteRetries != 0 {
		t.Fatalf("sequential run recorded retries: %+v", s)
	}
	if s.RCU == nil {
		t.Fatal("tree on rcu.Domain reported no RCU stats")
	}
	// The two-child delete ran exactly one inline Synchronize.
	if s.RCU.Synchronizes != 1 {
		t.Fatalf("RCU.Synchronizes=%d, want 1 (one per two-child delete)", s.RCU.Synchronizes)
	}
}

// TestTreeStatsSurviveClose: a closed handle's counts fold into the
// tree totals, so Stats never goes backwards across handle churn.
func TestTreeStatsSurviveClose(t *testing.T) {
	tr := NewTree[int, int](rcu.NewDomain())
	h := tr.NewHandle()
	h.Insert(1, 1)
	h.Contains(1)
	h.Close()
	s := tr.Stats()
	if s.Inserts != 1 || s.Contains != 1 {
		t.Fatalf("counters lost on Close: %+v", s)
	}
}

// TestTreeStatsNoStatsFlavor: a flavor without accounting must yield
// RCU == nil, not a panic.
func TestTreeStatsNoStatsFlavor(t *testing.T) {
	tr := NewTree[int, int](rcu.NoSync(rcu.NewDomain()))
	h := tr.NewHandle()
	defer h.Close()
	h.Insert(1, 1)
	if s := tr.Stats(); s.RCU != nil {
		t.Fatalf("NoSync flavor reported RCU stats: %+v", s.RCU)
	}
}

// TestStatsSnapshotRace hammers Tree.Stats concurrently with a churning
// insert/delete/contains workload and handle open/close cycles,
// asserting all counters are monotonic. Run under -race by the CI race
// target for ./internal/core/....
func TestStatsSnapshotRace(t *testing.T) {
	tr := NewTree[int, int](rcu.NewDomain())
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Churning workers with periodic handle turnover.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for !stop.Load() {
				h := tr.NewHandle()
				for i := 0; i < 64; i++ {
					k := (seed*31 + i*7) % 32
					switch i % 3 {
					case 0:
						h.Insert(k, k)
					case 1:
						h.Delete(k)
					default:
						h.Contains(k)
					}
				}
				h.Close()
			}
		}(w)
	}

	// Stats pollers asserting per-counter monotonicity.
	errs := make(chan string, 2)
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev Stats
			for !stop.Load() {
				s := tr.Stats()
				bad := s.Contains < prev.Contains ||
					s.Inserts < prev.Inserts ||
					s.InsertExisting < prev.InsertExisting ||
					s.InsertRetries < prev.InsertRetries ||
					s.Deletes < prev.Deletes ||
					s.DeleteMisses < prev.DeleteMisses ||
					s.DeleteRetries < prev.DeleteRetries ||
					s.TwoChildDeletes < prev.TwoChildDeletes
				if !bad && s.RCU != nil && prev.RCU != nil {
					bad = s.RCU.Synchronizes < prev.RCU.Synchronizes ||
						s.RCU.SyncWait.Total() < prev.RCU.SyncWait.Total()
				}
				if bad {
					select {
					case errs <- "stats snapshot went backwards":
					default:
					}
					return
				}
				prev = s
			}
		}()
	}

	time.Sleep(150 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}

	// Post-run sanity: successful inserts − successful deletes == keys
	// resident (exact once quiescent).
	s := tr.Stats()
	if got, want := tr.Len(), int(s.Inserts-s.Deletes); got != want {
		t.Fatalf("Len()=%d but Inserts-Deletes=%d", got, want)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
