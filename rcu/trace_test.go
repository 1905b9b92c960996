package rcu

import (
	"sync"
	"testing"
	"time"

	"github.com/go-citrus/citrus/citrustrace"
)

// testDomain abstracts the traceable flavors for the shared attribution
// test.
type testDomain interface {
	Flavor
	Traceable
	Stats() Stats
}

// checkReaderAttribution holds one reader inside a read-side critical
// section, synchronizes from another goroutine, and asserts that the
// trace attributes the grace-period wait to that specific reader.
func checkReaderAttribution(t *testing.T, d testDomain) {
	t.Helper()
	rec := citrustrace.New()
	d.SetTracer(rec.SyncTracer("rcu"))

	blocker := d.Register()
	idle := d.Register()
	defer idle.Unregister()
	type ider interface{ ID() uint64 }
	blockerID := blocker.(ider).ID()
	if idleID := idle.(ider).ID(); idleID == blockerID {
		t.Fatalf("reader ids collide: %d", idleID)
	}

	const hold = 20 * time.Millisecond
	blocker.ReadLock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.Synchronize()
	}()
	time.Sleep(hold)
	blocker.ReadUnlock()
	<-done
	blocker.Unregister()
	d.SetTracer(nil)

	tr := rec.Snapshot()
	var syncs, waits []citrustrace.Event
	for _, ev := range tr.Events {
		switch ev.Type {
		case citrustrace.EvSync:
			syncs = append(syncs, ev)
		case citrustrace.EvReaderWait:
			waits = append(waits, ev)
		}
	}
	if len(syncs) != 1 {
		t.Fatalf("got %d EvSync events, want 1", len(syncs))
	}
	if len(waits) != 1 {
		t.Fatalf("got %d EvReaderWait events, want 1 (only the blocking reader)", len(waits))
	}
	w := waits[0]
	if w.B != blockerID {
		t.Errorf("wait attributed to reader %d, want %d", w.B, blockerID)
	}
	if w.A != syncs[0].A {
		t.Errorf("reader wait gp id %d does not match sync gp id %d", w.A, syncs[0].A)
	}
	// The recorded waits must cover most of the hold time (scheduling
	// slop allowed) and the GP span must contain the reader wait.
	if w.Dur < hold/2 {
		t.Errorf("reader wait %v, want ≥ %v", w.Dur, hold/2)
	}
	if syncs[0].Dur < w.Dur {
		t.Errorf("sync span %v shorter than its reader wait %v", syncs[0].Dur, w.Dur)
	}
	if got := d.Stats().Synchronizes; got != 1 {
		t.Errorf("Synchronizes = %d, want 1", got)
	}
}

func TestDomainTraceAttributesReaderWaits(t *testing.T) {
	checkReaderAttribution(t, NewDomain())
}

func TestClassicDomainTraceAttributesReaderWaits(t *testing.T) {
	checkReaderAttribution(t, NewClassicDomain())
}

func TestEpochDomainTraceAttributesReaderWaits(t *testing.T) {
	checkReaderAttribution(t, NewEpochDomain())
}

// TestTracerToggleUnderLoad flips the tracer on and off while
// synchronizers and readers run; under -race this pins the toggle
// protocol (atomic pointer, in-flight grace periods keep their span).
func TestTracerToggleUnderLoad(t *testing.T) {
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
			rec := citrustrace.New(citrustrace.WithRingSize(256))
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < 2; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					r := d.Register()
					defer r.Unregister()
					for {
						select {
						case <-stop:
							return
						default:
						}
						r.ReadLock()
						r.ReadUnlock()
					}
				}()
			}
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
			deadline := time.Now().Add(100 * time.Millisecond)
			tracer := rec.SyncTracer("rcu")
			for time.Now().Before(deadline) {
				d.SetTracer(tracer)
				rec.Snapshot()
				d.SetTracer(nil)
			}
			close(stop)
			wg.Wait()
			for _, ev := range rec.Snapshot().Events {
				switch ev.Type {
				case citrustrace.EvSync, citrustrace.EvReaderWait,
					citrustrace.EvGPLead, citrustrace.EvGPShare:
				default:
					t.Fatalf("unexpected event type %v in domain ring", ev.Type)
				}
			}
		})
	}
}

func TestReaderIDsAreUnique(t *testing.T) {
	d := NewDomain()
	seen := make(map[uint64]bool)
	for i := 0; i < 10; i++ {
		h := d.register()
		if seen[h.ID()] {
			t.Fatalf("duplicate reader id %d", h.ID())
		}
		seen[h.ID()] = true
	}
}
