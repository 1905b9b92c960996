package rcu

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestBarrierObservesPriorCallbacks is the rcu_barrier contract under
// concurrency, for every flavor: a Barrier must not return until every
// callback deferred BEFORE it was issued has run. Many goroutines
// interleave Defer bursts with Barriers, each checking its own burst;
// under -race this also audits the enqueue/drain handoff. (The torture
// harness leans on exactly this: Barrier() flushes a round's
// retirements before its quiescent oracle checks.)
func TestBarrierObservesPriorCallbacks(t *testing.T) {
	for name, f := range flavors() {
		t.Run(name, func(t *testing.T) {
			r := NewReclaimer(f)
			defer r.Close()
			const workers, rounds, burst = 8, 20, 16
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for round := 0; round < rounds; round++ {
						var ran atomic.Int64
						for i := 0; i < burst; i++ {
							r.Defer(func() { ran.Add(1) })
						}
						r.Barrier()
						if got := ran.Load(); got != burst {
							t.Errorf("round %d: %d of %d pre-barrier callbacks ran", round, got, burst)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestBarrierPanicsOnClosedReclaimer pins the documented failure mode
// so a refactor cannot silently turn it into a hang.
func TestBarrierPanicsOnClosedReclaimer(t *testing.T) {
	r := NewReclaimer(NewDomain())
	r.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Barrier on a closed Reclaimer did not panic")
		}
	}()
	r.Barrier()
}
