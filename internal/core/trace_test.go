package core

import (
	"sync"
	"testing"
	"time"

	"github.com/go-citrus/citrus/citrustrace"
	"github.com/go-citrus/citrus/rcu"
)

// TestDisabledTracingAllocatesNothing pins the satellite guarantee:
// with no recorder attached, the hot paths allocate zero bytes per
// operation (Contains both ways, insert-of-existing, delete-miss — the
// paths that allocate nothing by design; a successful insert allocates
// its node regardless of tracing).
func TestDisabledTracingAllocatesNothing(t *testing.T) {
	tr := NewTree[int, int](rcu.NewDomain())
	h := tr.NewHandle()
	defer h.Close()
	h.Insert(1, 10)

	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Contains hit", func() { h.Contains(1) }},
		{"Contains miss", func() { h.Contains(2) }},
		{"Insert existing", func() { h.Insert(1, 10) }},
		{"Delete miss", func() { h.Delete(2) }},
	} {
		if avg := testing.AllocsPerRun(500, tc.op); avg != 0 {
			t.Errorf("%s: %.2f allocs/op with tracing disabled, want 0", tc.name, avg)
		}
	}
}

// TestTracedOpsAllocateNothingSteadyState: after a handle's ring
// exists, traced operations reuse the handle-resident trace context, so
// even the *enabled* path adds no per-op allocation on the same paths.
func TestTracedOpsAllocateNothingSteadyState(t *testing.T) {
	tr := NewTree[int, int](rcu.NewDomain())
	rec := citrustrace.New()
	tr.SetTracer(rec)
	h := tr.NewHandle()
	defer h.Close()
	h.Insert(1, 10)
	h.Contains(1) // creates the ring
	if avg := testing.AllocsPerRun(500, func() { h.Contains(1) }); avg != 0 {
		t.Errorf("traced Contains allocates %.2f objects/op in steady state, want 0", avg)
	}
}

func TestTraceEventsMirrorOperations(t *testing.T) {
	dom := rcu.NewDomain()
	tr := NewTree[int, int](dom)
	rec := citrustrace.New()
	dom.SetTracer(rec.SyncTracer("rcu"))
	tr.SetTracer(rec)
	h := tr.NewHandle()
	defer h.Close()

	// Build 1..7 then delete an inner node (5 has two children after
	// inserting 4,5,6 under the right shape) to force a two-child path.
	for _, k := range []int{4, 2, 6, 1, 3, 5, 7} {
		if !h.Insert(k, k*10) {
			t.Fatalf("insert %d failed", k)
		}
	}
	h.Insert(4, 0)    // existing
	h.Contains(3)     // hit
	h.Contains(99)    // miss
	h.Delete(99)      // miss
	if !h.Delete(4) { // root of the subtree: two children → grace period
		t.Fatal("delete 4 failed")
	}
	if !h.Delete(1) { // leaf: single-child path
		t.Fatal("delete 1 failed")
	}

	counts := map[citrustrace.EventType]int{}
	outcomes := map[[2]uint64]int{}
	for _, ev := range rec.Snapshot().Events {
		counts[ev.Type]++
		if ev.Type == citrustrace.EvInsert || ev.Type == citrustrace.EvDelete || ev.Type == citrustrace.EvContains {
			outcomes[[2]uint64{uint64(ev.Type), ev.A}]++
		}
	}
	if got := counts[citrustrace.EvInsert]; got != 8 {
		t.Errorf("EvInsert = %d, want 8", got)
	}
	if got := outcomes[[2]uint64{uint64(citrustrace.EvInsert), 0}]; got != 1 {
		t.Errorf("insert-existing events = %d, want 1", got)
	}
	if got := counts[citrustrace.EvContains]; got != 2 {
		t.Errorf("EvContains = %d, want 2", got)
	}
	if got := outcomes[[2]uint64{uint64(citrustrace.EvContains), 1}]; got != 1 {
		t.Errorf("contains-hit events = %d, want 1", got)
	}
	if got := counts[citrustrace.EvDelete]; got != 3 {
		t.Errorf("EvDelete = %d, want 3", got)
	}
	for a, want := range map[uint64]int{0: 1, 1: 1, 2: 1} { // miss, one-child, two-child
		if got := outcomes[[2]uint64{uint64(citrustrace.EvDelete), a}]; got != want {
			t.Errorf("delete outcome %d events = %d, want %d", a, got, want)
		}
	}
	// The two-child delete paid one grace period: updater-side wait span
	// plus domain-side sync span.
	if got := counts[citrustrace.EvSyncWait]; got != 1 {
		t.Errorf("EvSyncWait = %d, want 1", got)
	}
	if got := counts[citrustrace.EvSync]; got != 1 {
		t.Errorf("EvSync = %d, want 1", got)
	}
	// Each successful delete emits one EvRetire instant (A = node count:
	// 1 for the simple path, 2 for successor relocation).
	if got := counts[citrustrace.EvRetire]; got != 2 {
		t.Errorf("EvRetire = %d, want 2", got)
	}
}

// TestTraceToggleAndDumpUnderChurn is the -race hammer required by the
// issue: DumpTrace (Recorder.Snapshot) and SetTracer toggles run
// against concurrent insert/delete/contains without synchronization
// with the workers.
func TestTraceToggleAndDumpUnderChurn(t *testing.T) {
	dom := rcu.NewDomain()
	tr := NewTree[int, int](dom)
	const (
		workers  = 4
		keyRange = 256
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := tr.NewHandle()
			defer h.Close()
			rng := uint64(w)*2654435761 + 1
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rng = rng*6364136223846793005 + 1442695040888963407
				k := int(rng>>33) % keyRange
				switch i % 4 {
				case 0:
					h.Insert(k, k)
				case 1:
					h.Delete(k)
				default:
					h.Contains(k)
				}
			}
		}(w)
	}

	deadline := time.Now().Add(500 * time.Millisecond)
	var lastRec *citrustrace.Recorder
	for i := 0; time.Now().Before(deadline); i++ {
		switch i % 3 {
		case 0:
			rec := citrustrace.New(citrustrace.WithRingSize(512))
			dom.SetTracer(rec.SyncTracer("rcu"))
			tr.SetTracer(rec)
			lastRec = rec
		case 1:
			if lastRec != nil {
				lastRec.Snapshot() // DumpTrace equivalent, mid-flight
			}
		case 2:
			tr.SetTracer(nil)
			dom.SetTracer(nil)
		}
	}
	close(stop)
	wg.Wait()
	tr.SetTracer(nil)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatalf("tree invariants violated after traced churn: %v", err)
	}
	if lastRec != nil {
		for _, ev := range lastRec.Snapshot().Events {
			if ev.Type == citrustrace.EvNone {
				t.Fatal("snapshot surfaced an empty slot")
			}
		}
	}
}

// TestHandleRingLabeledByReaderID: the handle's ring is named after its
// RCU reader id, which is what EvReaderWait events carry — the pivot
// that makes grace-period waits attributable to a specific handle.
func TestHandleRingLabeledByReaderID(t *testing.T) {
	dom := rcu.NewDomain()
	tr := NewTree[int, int](dom)
	rec := citrustrace.New()
	tr.SetTracer(rec)
	h := tr.NewHandle()
	defer h.Close()
	h.Contains(1)
	snap := rec.Snapshot()
	if len(snap.Rings) != 1 {
		t.Fatalf("got %d rings, want 1", len(snap.Rings))
	}
	id := h.r.(interface{ ID() uint64 }).ID()
	want := "reader-" + string(rune('0'+id))
	if id > 9 { // keep the assertion simple for single-digit ids
		t.Skip("unexpectedly large reader id")
	}
	if snap.Rings[0].Label != want {
		t.Errorf("ring label %q, want %q", snap.Rings[0].Label, want)
	}
}
