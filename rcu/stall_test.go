package rcu

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// stallDomain is the configuration surface the stall tests exercise;
// both domain flavors implement it.
type stallDomain interface {
	Flavor
	SetStallTimeout(d time.Duration)
	SetStallHandler(h func(StallReport))
	Stats() Stats
}

func stallDomains() map[string]stallDomain {
	return map[string]stallDomain{
		"Domain":        NewDomain(),
		"ClassicDomain": NewClassicDomain(),
		"EpochDomain":   NewEpochDomain(),
	}
}

// TestStallDetectorFiresWithReaderID pins the acceptance scenario on
// both flavors: a reader parked in its critical section past the
// threshold fires the stall handler with that reader's ID, raises the
// ActiveStalls gauge for the duration of the wait, and settles it once
// the reader leaves and the grace period completes.
func TestStallDetectorFiresWithReaderID(t *testing.T) {
	for name, d := range stallDomains() {
		t.Run(name, func(t *testing.T) {
			d.SetStallTimeout(10 * time.Millisecond)
			var mu sync.Mutex
			var reports []StallReport
			d.SetStallHandler(func(r StallReport) {
				mu.Lock()
				reports = append(reports, r)
				mu.Unlock()
			})

			parked := d.Register()
			defer parked.Unregister()
			id := parked.(interface{ ID() uint64 }).ID()
			parked.ReadLock()

			done := make(chan struct{})
			go func() {
				d.Synchronize()
				close(done)
			}()

			deadline := time.Now().Add(10 * time.Second)
			for {
				mu.Lock()
				n := len(reports)
				mu.Unlock()
				if n > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("no stall report within 10s of a parked reader")
				}
				time.Sleep(time.Millisecond)
			}
			if g := d.Stats().ActiveStalls; g != 1 {
				t.Fatalf("ActiveStalls = %d during the stall, want 1", g)
			}

			parked.ReadUnlock()
			<-done

			mu.Lock()
			defer mu.Unlock()
			r := reports[0]
			if r.Waited < 10*time.Millisecond {
				t.Fatalf("first report fired at %v, before the 10ms threshold", r.Waited)
			}
			named := false
			for _, sr := range r.Readers {
				named = named || sr.ID == id
			}
			if !named {
				t.Fatalf("report %v does not name the parked reader %d", r, id)
			}
			if !strings.Contains(r.String(), "stalled") {
				t.Fatalf("report String() = %q", r.String())
			}
			s := d.Stats()
			if s.Stalls == 0 {
				t.Fatal("Stats.Stalls did not count the stall")
			}
			if s.ActiveStalls != 0 {
				t.Fatalf("ActiveStalls = %d after the grace period completed, want 0", s.ActiveStalls)
			}
		})
	}
}

// TestStallReportsDouble: a long stall produces a handful of reports
// with doubling intervals, not one per poll.
func TestStallReportsDouble(t *testing.T) {
	for name, d := range stallDomains() {
		t.Run(name, func(t *testing.T) {
			d.SetStallTimeout(4 * time.Millisecond)
			var fired sync.WaitGroup
			var mu sync.Mutex
			var count int
			fired.Add(2) // wait for two reports: threshold and 2×
			d.SetStallHandler(func(StallReport) {
				mu.Lock()
				count++
				if count <= 2 {
					fired.Done()
				}
				mu.Unlock()
			})

			parked := d.Register()
			defer parked.Unregister()
			parked.ReadLock()
			done := make(chan struct{})
			go func() {
				d.Synchronize()
				close(done)
			}()
			fired.Wait()
			parked.ReadUnlock()
			<-done

			mu.Lock()
			defer mu.Unlock()
			// The wait lasted only as long as two doubling intervals needed
			// (~12ms, plus scheduling); a report-per-poll bug would have
			// produced dozens.
			if count < 2 || count > 10 {
				t.Fatalf("%d reports for a two-interval stall, want 2..10", count)
			}
		})
	}
}

// TestStallDetectionOffByDefault: with no threshold configured (or the
// threshold reset to 0) a slow grace period fires nothing.
func TestStallDetectionOffByDefault(t *testing.T) {
	for name, d := range stallDomains() {
		t.Run(name, func(t *testing.T) {
			d.SetStallHandler(func(r StallReport) {
				t.Errorf("stall handler fired with detection off: %v", r)
			})
			parked := d.Register()
			defer parked.Unregister()
			parked.ReadLock()
			done := make(chan struct{})
			go func() {
				d.Synchronize()
				close(done)
			}()
			time.Sleep(30 * time.Millisecond)
			parked.ReadUnlock()
			<-done
			if s := d.Stats(); s.Stalls != 0 || s.ActiveStalls != 0 {
				t.Fatalf("stall counters moved with detection off: %+v", s)
			}
		})
	}
}

// TestStallHandlerRemoval: clearing the handler keeps counting stalls
// in Stats without calling anything.
func TestStallHandlerRemoval(t *testing.T) {
	d := NewDomain()
	d.SetStallTimeout(2 * time.Millisecond)
	d.SetStallHandler(func(StallReport) { t.Error("removed handler fired") })
	d.SetStallHandler(nil)

	parked := d.Register()
	defer parked.Unregister()
	parked.ReadLock()
	done := make(chan struct{})
	go func() {
		d.Synchronize()
		close(done)
	}()
	for d.Stats().Stalls == 0 {
		time.Sleep(time.Millisecond)
	}
	parked.ReadUnlock()
	<-done
}
