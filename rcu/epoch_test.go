package rcu

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestEpochSlotEncoding pins down the EBR slot protocol: zero while
// quiescent, the pinned epoch inside a section, and two epoch advances
// per grace period.
func TestEpochSlotEncoding(t *testing.T) {
	d := NewEpochDomain()
	h := d.register()
	if got := h.slot.Load(); got != 0 {
		t.Fatalf("initial slot = %d, want 0", got)
	}
	h.ReadLock()
	if got, e := h.slot.Load(), d.Epoch(); got != e {
		t.Fatalf("slot inside CS = %d, want pinned epoch %d", got, e)
	}
	h.ReadUnlock()
	if got := h.slot.Load(); got != 0 {
		t.Fatalf("slot after ReadUnlock = %d, want 0", got)
	}
	before := d.Epoch()
	d.Synchronize()
	if got := d.Epoch(); got != before+2 {
		t.Fatalf("epoch advanced %d→%d across Synchronize, want two advances", before, got)
	}
	h.Unregister()
}

// TestEpochNestedReadLock: EBR's distinguishing read-side property —
// sections nest, inner sections stay pinned at the outermost epoch, and
// only the outermost ReadUnlock clears the pin.
func TestEpochNestedReadLock(t *testing.T) {
	d := NewEpochDomain()
	h := d.register()
	defer h.Unregister()

	h.ReadLock()
	pinned := h.slot.Load()
	h.ReadLock() // nested: no new store, no panic
	h.ReadLock()
	if got := h.slot.Load(); got != pinned {
		t.Fatalf("nested ReadLock moved the pin %d→%d", pinned, got)
	}
	h.ReadUnlock()
	h.ReadUnlock()
	if got := h.slot.Load(); got != pinned {
		t.Fatalf("inner ReadUnlock cleared the pin (slot = %d)", got)
	}
	h.ReadUnlock() // outermost
	if got := h.slot.Load(); got != 0 {
		t.Fatalf("outermost ReadUnlock left slot = %d, want 0", got)
	}
	// A nested section that was entered before Synchronize must hold the
	// grace period exactly like a flat one.
	h.ReadLock()
	h.ReadLock()
	done := make(chan struct{})
	go func() {
		d.Synchronize()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Synchronize returned while a nested reader was pinned")
	case <-time.After(20 * time.Millisecond):
	}
	h.ReadUnlock()
	select {
	case <-done:
		t.Fatal("Synchronize returned while the outer section was still pinned")
	case <-time.After(20 * time.Millisecond):
	}
	h.ReadUnlock()
	<-done
}

// TestEpochLateReaderNotWaited: a section that pins an epoch at or past
// a grace period's advances is not a pre-existing reader of that grace
// period and must not be waited for. The late pin is planted directly
// in the slot (the value an entry after both advances would store), so
// the check is deterministic: a hang here means the advance threshold
// is wrong.
func TestEpochLateReaderNotWaited(t *testing.T) {
	d := NewEpochDomain()
	late := d.register()
	defer late.Unregister()
	late.slot.Store(d.Epoch() + 2)
	d.Synchronize() // must ignore the late pin; hang = test timeout
	late.slot.Store(0)
}

// TestEpochNoCombining: with combining off every call leads its own
// epoch advances.
func TestEpochNoCombining(t *testing.T) {
	d := NewEpochDomain()
	d.SetCombining(false)
	for i := 0; i < 5; i++ {
		d.Synchronize()
	}
	s := d.Stats()
	if s.SyncLeads != 5 || s.SyncShares != 0 {
		t.Fatalf("leads = %d, shares = %d with combining off; want 5, 0", s.SyncLeads, s.SyncShares)
	}
	if got := d.Epoch(); got != 11 {
		t.Fatalf("epoch = %d after 5 uncombined grace periods from 1, want 11", got)
	}
}

// TestEpochAdvanceEarlyMutantSkipsPinnedReader pins the negative
// control's defect deterministically: with the mutant enabled, a
// Synchronize returns while a pre-existing reader is still pinned —
// the violation the torture oracle must catch — and a correct domain
// blocks in the same scenario.
func TestEpochAdvanceEarlyMutantSkipsPinnedReader(t *testing.T) {
	d := NewEpochDomain()
	d.SetAdvanceEarlyMutant(true)
	h := d.Register()
	defer h.Unregister()
	h.ReadLock()
	done := make(chan struct{})
	go func() {
		d.Synchronize()
		close(done)
	}()
	select {
	case <-done:
		// The mutant skipped the pinned reader, as designed.
	case <-time.After(5 * time.Second):
		t.Fatal("mutant Synchronize still blocked on a pinned reader after 5s; the negative control has no teeth")
	}
	h.ReadUnlock()
}

// TestEpochReclaimerIntegration: the EBR flavor drives a Reclaimer
// end to end — callbacks deferred behind a parked reader run only after
// the reader leaves.
func TestEpochReclaimerIntegration(t *testing.T) {
	d := NewEpochDomain()
	r := NewReclaimer(d)
	defer r.Close()

	release := parkReader(t, d)
	var ran atomic.Int64
	for i := 0; i < 10; i++ {
		r.Defer(func() { ran.Add(1) })
	}
	time.Sleep(20 * time.Millisecond)
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d callbacks ran while a pre-existing reader was pinned", got)
	}
	release()
	r.Barrier()
	if got := ran.Load(); got != 10 {
		t.Fatalf("callbacks ran = %d after Barrier, want 10", got)
	}
}
