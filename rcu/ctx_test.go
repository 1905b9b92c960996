package rcu

import (
	"testing"
	"time"
)

// TestBeginSynchronize: the channel closes exactly when the grace
// period completes — not before the blocking reader leaves.
func TestBeginSynchronize(t *testing.T) {
	d := NewDomain()
	parked := d.Register()
	defer parked.Unregister()
	parked.ReadLock()
	done := BeginSynchronize(d)
	select {
	case <-done:
		t.Fatal("grace period completed under a parked reader")
	case <-time.After(20 * time.Millisecond):
	}
	parked.ReadUnlock()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("grace period did not complete after the reader left")
	}
}
