package rcu

import (
	"sync"
	"testing"
	"time"
)

// TestSeqPrimitives pins the rcu_seq arithmetic the combining engine is
// built on: snap from an idle sequence is one stride ahead; snap from an
// in-flight (odd) sequence rounds past the in-flight grace period, whose
// reader snapshot cannot be trusted to cover the caller.
func TestSeqPrimitives(t *testing.T) {
	cases := []struct{ s, snap uint64 }{
		{0, 2}, // idle: the next grace period suffices
		{1, 4}, // in flight: need the one after the current
		{2, 4},
		{3, 6},
		{100, 102},
		{101, 104},
	}
	for _, c := range cases {
		if got := seqSnap(c.s); got != c.snap {
			t.Errorf("seqSnap(%d) = %d, want %d", c.s, got, c.snap)
		}
	}
	if seqDone(2, 4) {
		t.Error("seqDone(2, 4) = true")
	}
	if !seqDone(4, 4) || !seqDone(6, 4) {
		t.Error("seqDone at/past target = false")
	}
}

// TestSynchronizeCombinesConcurrentCallers holds one reader inside a
// critical section while 8 goroutines synchronize concurrently. Under
// combining, at most two grace-period scans can run (callers that
// observed the idle sequence share the first; callers that observed it
// in flight need — and share — the second), so at least six of the
// eight calls must complete without leading a scan.
func TestSynchronizeCombinesConcurrentCallers(t *testing.T) {
	d := NewDomain()
	r := d.Register()
	defer r.Unregister()
	r.ReadLock()

	const callers = 8
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Synchronize()
		}()
	}
	// Give every caller ample time to snapshot its sequence target while
	// the reader still blocks the first grace period.
	time.Sleep(100 * time.Millisecond)
	r.ReadUnlock()
	wg.Wait()

	s := d.Stats()
	if s.Synchronizes != callers {
		t.Fatalf("Synchronizes = %d, want %d", s.Synchronizes, callers)
	}
	if s.SyncLeads < 1 || s.SyncLeads > 2 {
		t.Errorf("SyncLeads = %d, want 1 or 2 (combining must collapse %d callers onto ≤2 scans)",
			s.SyncLeads, callers)
	}
	if got := s.SyncShares + s.SyncExpedited; got < callers-2 {
		t.Errorf("SyncShares+SyncExpedited = %d+%d = %d, want ≥ %d",
			s.SyncShares, s.SyncExpedited, got, callers-2)
	}
	if s.FollowerWait.Total() < s.SyncShares {
		t.Errorf("FollowerWait.Total() = %d < SyncShares = %d (every shared call waits at least once)",
			s.FollowerWait.Total(), s.SyncShares)
	}
}

// TestSyncOutcomesPartitionCalls pins the accounting contract on every
// flavor: each Synchronize call finishes exactly one way — it led its
// own grace period, shared one another caller led, or was expedited —
// so SyncLeads + SyncShares + SyncExpedited == Synchronizes, and every
// shared call waited at least once as a follower. Each flavor runs
// once idle and once with its callers piled up behind a parked reader,
// where the combining flavors share grace periods.
func TestSyncOutcomesPartitionCalls(t *testing.T) {
	for _, f := range []struct {
		name string
		new  func() statsFlavor
	}{
		{"Domain", func() statsFlavor { return NewDomain() }},
		{"EpochDomain", func() statsFlavor { return NewEpochDomain() }},
		{"ClassicDomain", func() statsFlavor { return NewClassicDomain() }},
	} {
		for _, parked := range []bool{false, true} {
			name := f.name + "/idle"
			if parked {
				name = f.name + "/parkedReader"
			}
			t.Run(name, func(t *testing.T) {
				d := f.new()
				release := func() {}
				if parked {
					release = parkReader(t, d)
				}
				const callers, rounds = 8, 25
				var wg sync.WaitGroup
				for range callers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for range rounds {
							d.Synchronize()
						}
					}()
				}
				if parked {
					time.Sleep(20 * time.Millisecond)
				}
				release()
				wg.Wait()

				s := d.Stats()
				if want := int64(callers * rounds); s.Synchronizes != want {
					t.Fatalf("Synchronizes = %d, want %d", s.Synchronizes, want)
				}
				if got := s.SyncLeads + s.SyncShares + s.SyncExpedited; got != s.Synchronizes {
					t.Fatalf("leads(%d) + shares(%d) + expedited(%d) = %d, want Synchronizes = %d",
						s.SyncLeads, s.SyncShares, s.SyncExpedited, got, s.Synchronizes)
				}
				if s.FollowerWait.Total() < s.SyncShares {
					t.Fatalf("FollowerWait.Total() = %d < SyncShares = %d (every shared call waits at least once)",
						s.FollowerWait.Total(), s.SyncShares)
				}
				if f.name == "ClassicDomain" && s.SyncLeads != s.Synchronizes {
					t.Fatalf("ClassicDomain leads = %d, want every call (%d) to lead", s.SyncLeads, s.Synchronizes)
				}
			})
		}
	}
}

// TestCombiningDisabledScansPerCall pins the ablation escape hatch:
// with SetCombining(false) every call runs — and is accounted as — its
// own scan.
func TestCombiningDisabledScansPerCall(t *testing.T) {
	d := NewDomain()
	d.SetCombining(false)
	for i := 0; i < 5; i++ {
		d.Synchronize()
	}
	s := d.Stats()
	if s.SyncLeads != 5 || s.SyncShares != 0 || s.SyncExpedited != 0 {
		t.Fatalf("leads/shares/expedited = %d/%d/%d, want 5/0/0 with combining off",
			s.SyncLeads, s.SyncShares, s.SyncExpedited)
	}
}

// TestCombiningSequentialCallersEachLead: without concurrency there is
// nothing to combine — each call elects itself and scans.
func TestCombiningSequentialCallersEachLead(t *testing.T) {
	d := NewDomain()
	for i := 0; i < 3; i++ {
		d.Synchronize()
	}
	s := d.Stats()
	if s.SyncLeads != 3 || s.SyncShares != 0 || s.SyncExpedited != 0 {
		t.Fatalf("leads/shares/expedited = %d/%d/%d, want 3/0/0 for sequential calls",
			s.SyncLeads, s.SyncShares, s.SyncExpedited)
	}
}

// TestClassicSynchronizeCountsAsLead pins the ClassicDomain accounting
// convention: the lock-serialized flavor scans on every call, so every
// call is a lead and nothing is ever shared or expedited.
func TestClassicSynchronizeCountsAsLead(t *testing.T) {
	d := NewClassicDomain()
	for i := 0; i < 3; i++ {
		d.Synchronize()
	}
	s := d.Stats()
	if s.SyncLeads != 3 || s.SyncShares != 0 || s.SyncExpedited != 0 {
		t.Fatalf("leads/shares/expedited = %d/%d/%d, want 3/0/0 for ClassicDomain",
			s.SyncLeads, s.SyncShares, s.SyncExpedited)
	}
}

// TestSnapEarlyMutantSkipsWait white-boxes the negative-control mutant:
// with snapEarly on, an idle-domain Synchronize must return without
// waiting for a held reader — the unsoundness the torture oracle is
// expected to catch (cmd/citrustorture -flavor snapearly).
func TestSnapEarlyMutantSkipsWait(t *testing.T) {
	d := NewDomain()
	d.SetSnapEarlyMutant(true)
	r := d.Register()
	defer r.Unregister()
	r.ReadLock()
	defer r.ReadUnlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Synchronize()
	}()
	select {
	case <-done:
		// Broken as intended: returned despite the reader being inside.
	case <-time.After(2 * time.Second):
		t.Fatal("snapEarly mutant waited for the reader; the negative control would not inject its bug")
	}
}

// TestSyncCostSeparatesSpinsFromRechecks pins the wait-loop accounting
// contract on every flavor: a grace period blocked long enough to
// escalate must report busy spins (pre-yield state reads), yields,
// post-escalation rechecks AND sleeps — the sleep phase is what bounds
// the old unbounded-Gosched core burn — while an unblocked grace period
// reports none of them.
func TestSyncCostSeparatesSpinsFromRechecks(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    testDomain
	}{
		{"Domain", NewDomain()},
		{"ClassicDomain", NewClassicDomain()},
		{"EpochDomain", NewEpochDomain()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.d
			d.Synchronize() // unblocked: must cost nothing
			if s := d.Stats(); s.SyncSpins != 0 || s.SyncRechecks != 0 || s.SyncYields != 0 || s.SyncSleeps != 0 {
				t.Fatalf("unblocked synchronize recorded spins=%d rechecks=%d yields=%d sleeps=%d, want all 0",
					s.SyncSpins, s.SyncRechecks, s.SyncYields, s.SyncSleeps)
			}

			r := d.Register()
			defer r.Unregister()
			r.ReadLock()
			done := make(chan struct{})
			go func() {
				defer close(done)
				d.Synchronize()
			}()
			// 30ms is far past the spin (64 reads) and yield (128 rounds)
			// budgets, so the waiter must have reached the sleep phase.
			time.Sleep(30 * time.Millisecond)
			r.ReadUnlock()
			<-done

			s := d.Stats()
			if s.SyncSpins == 0 {
				t.Errorf("SyncSpins = 0, want > 0 (busy phase ran first)")
			}
			if s.SyncYields == 0 {
				t.Errorf("SyncYields = 0, want > 0")
			}
			if s.SyncRechecks == 0 {
				t.Errorf("SyncRechecks = 0, want > 0 (every yield/sleep re-checks)")
			}
			if s.SyncSleeps == 0 {
				t.Errorf("SyncSleeps = 0, want > 0 (30ms must escalate past yielding)")
			}
			if s.SyncRechecks != s.SyncYields+s.SyncSleeps {
				t.Errorf("SyncRechecks = %d, want SyncYields+SyncSleeps = %d+%d (one recheck per escalated round)",
					s.SyncRechecks, s.SyncYields, s.SyncSleeps)
			}
			// The sleep cap bounds re-check frequency: 30ms of waiting at
			// ≤100µs per sleep must not have burned an unbounded number of
			// yields — the bug this escalation fixes.
			if s.SyncYields > spinsBeforeYield+yieldsBeforeSleep+1 {
				t.Errorf("SyncYields = %d, want ≤ %d (yield phase is bounded)",
					s.SyncYields, spinsBeforeYield+yieldsBeforeSleep+1)
			}
		})
	}
}

// TestRegisterChurnDuringSynchronizeStorm races registration changes
// against a Synchronize storm on every flavor — run under -race, this
// pins the copy-on-write reader list against the lock-free scan and the
// combining fast path.
func TestRegisterChurnDuringSynchronizeStorm(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    testDomain
	}{
		{"Domain", NewDomain()},
		{"ClassicDomain", NewClassicDomain()},
		{"EpochDomain", NewEpochDomain()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := tc.d
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						r := d.Register()
						for j := 0; j < 8; j++ {
							r.ReadLock()
							r.ReadUnlock()
						}
						r.Unregister()
					}
				}()
			}
			for i := 0; i < 4; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						d.Synchronize()
					}
				}()
			}
			time.Sleep(150 * time.Millisecond)
			close(stop)
			wg.Wait()
			s := d.Stats()
			if s.Synchronizes == 0 {
				t.Fatal("storm ran no grace periods")
			}
			if s.Synchronizes != s.SyncWait.Total() {
				t.Fatalf("Synchronizes = %d but SyncWait.Total() = %d", s.Synchronizes, s.SyncWait.Total())
			}
		})
	}
}
