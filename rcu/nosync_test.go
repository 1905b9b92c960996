package rcu

import (
	"testing"
	"time"
)

// TestNoSyncDoesNotWait: the mutation wrapper's Synchronize (flavor- and
// reader-level) must return immediately even while a reader is inside a
// critical section — that is the property it deliberately breaks — while
// the wrapped domain, asked directly, still waits.
func TestNoSyncDoesNotWait(t *testing.T) {
	dom := NewDomain()
	f := NoSync(dom)
	r := f.Register()
	r.ReadLock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Synchronize() // must not wait for the active reader
		r.Synchronize() // ditto via the wrapped reader
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("NoSync Synchronize blocked on an active reader")
	}

	// The underlying domain is unaffected: it still waits.
	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		dom.Synchronize()
	}()
	select {
	case <-blocked:
		t.Fatal("the wrapped domain ignored an active reader")
	case <-time.After(20 * time.Millisecond):
	}
	r.ReadUnlock()
	<-blocked
	r.Unregister()
}
