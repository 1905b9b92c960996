package rcu

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// parkReader registers a reader on d, enters its critical section, and
// returns a release func; while parked, every grace period on d blocks.
func parkReader(t *testing.T, d Flavor) (release func()) {
	t.Helper()
	r := d.Register()
	r.ReadLock()
	var released atomic.Bool
	t.Cleanup(func() {
		if !released.Load() {
			r.ReadUnlock()
		}
		r.Unregister()
	})
	return func() {
		released.Store(true)
		r.ReadUnlock()
	}
}

func TestReclaimerRunsCallbacks(t *testing.T) {
	for name, f := range flavors() {
		t.Run(name, func(t *testing.T) {
			r := NewReclaimer(f)
			defer r.Close()
			var ran atomic.Int64
			for i := 0; i < 100; i++ {
				r.Defer(func() { ran.Add(1) })
			}
			r.Barrier()
			if got := ran.Load(); got != 100 {
				t.Fatalf("%d callbacks ran after Barrier, want 100", got)
			}
		})
	}
}

// TestReclaimerWaitsForPreexistingReader: a callback deferred while a
// reader is inside its critical section must not run until that reader
// leaves.
func TestReclaimerWaitsForPreexistingReader(t *testing.T) {
	for name, f := range flavors() {
		t.Run(name, func(t *testing.T) {
			r := NewReclaimer(f)
			defer r.Close()
			reader := f.Register()
			defer reader.Unregister()

			inCS := make(chan struct{})
			release := make(chan struct{})
			var readerInside atomic.Bool
			readerInside.Store(true)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				reader.ReadLock()
				close(inCS)
				<-release
				readerInside.Store(false)
				reader.ReadUnlock()
			}()

			<-inCS
			ranTooEarly := make(chan bool, 1)
			r.Defer(func() { ranTooEarly <- readerInside.Load() })

			select {
			case early := <-ranTooEarly:
				if early {
					t.Fatal("callback ran while a pre-existing reader was inside its critical section")
				}
				t.Fatal("callback ran before the reader was released (scheduling makes this impossible)")
			case <-time.After(20 * time.Millisecond):
			}
			close(release)
			if early := <-ranTooEarly; early {
				t.Fatal("callback observed the reader still inside")
			}
			wg.Wait()
		})
	}
}

func TestReclaimerOrdering(t *testing.T) {
	r := NewReclaimer(NewDomain())
	defer r.Close()
	var mu sync.Mutex
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		r.Defer(func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	r.Barrier()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 50 {
		t.Fatalf("ran %d callbacks, want 50", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("callbacks ran out of order: %v", order[:i+1])
		}
	}
}

func TestReclaimerCloseDrains(t *testing.T) {
	r := NewReclaimer(NewDomain())
	var ran atomic.Int64
	for i := 0; i < 500; i++ {
		r.Defer(func() { ran.Add(1) })
	}
	r.Close()
	if got := ran.Load(); got != 500 {
		t.Fatalf("Close drained %d callbacks, want 500", got)
	}
}

func TestReclaimerCloseIdempotent(t *testing.T) {
	r := NewReclaimer(NewDomain())
	r.Close()
	r.Close()
}

func TestDeferAfterClosePanics(t *testing.T) {
	r := NewReclaimer(NewDomain())
	r.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Defer after Close did not panic")
		}
	}()
	r.Defer(func() {})
}

func TestTryDeferAfterCloseReturnsFalse(t *testing.T) {
	r := NewReclaimer(NewDomain())
	var ran atomic.Bool
	if !r.TryDefer(func() { ran.Store(true) }) {
		t.Fatal("TryDefer on an open reclaimer returned false")
	}
	r.Close()
	if !ran.Load() {
		t.Fatal("callback accepted by TryDefer did not run by Close")
	}
	if r.TryDefer(func() { t.Error("callback ran after a false TryDefer") }) {
		t.Fatal("TryDefer after Close returned true")
	}
}

// TestTryDeferConcurrentClose races TryDefer and panic-guarded Defer
// against Close from many goroutines: every accepted callback (a true
// TryDefer, a Defer that returned) must run exactly once, every rejected
// one (a false TryDefer, a Defer that panicked) never.
func TestTryDeferConcurrentClose(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		r := NewReclaimer(NewDomain())
		var accepted, ran atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 200; i++ {
					if r.TryDefer(func() { ran.Add(1) }) {
						accepted.Add(1)
					}
				}
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				defer func() { recover() }() // Defer after Close panics; expected here
				for i := 0; i < 200; i++ {
					r.Defer(func() { ran.Add(1) })
					accepted.Add(1)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			runtime.Gosched()
			r.Close()
		}()
		close(start)
		wg.Wait()
		// Close has returned in all goroutines, so the final drain is done.
		if got, want := ran.Load(), accepted.Load(); got != want {
			t.Fatalf("iter %d: %d callbacks ran, %d were accepted", iter, got, want)
		}
	}
}

// TestReclaimerConcurrentDefer hammers Defer from many goroutines with
// active readers cycling, then verifies exactly-once execution.
func TestReclaimerConcurrentDefer(t *testing.T) {
	dom := NewDomain()
	r := NewReclaimer(dom)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 3; i++ {
		h := dom.Register()
		readers.Add(1)
		go func() {
			defer readers.Done()
			defer h.Unregister()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.ReadLock()
				h.ReadUnlock()
			}
		}()
	}

	var ran atomic.Int64
	var wg sync.WaitGroup
	const producers, each = 8, 500
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Defer(func() { ran.Add(1) })
			}
		}()
	}
	wg.Wait()
	r.Barrier()
	if got := ran.Load(); got != producers*each {
		t.Fatalf("ran %d callbacks, want %d", got, producers*each)
	}
	close(stop)
	readers.Wait()
	r.Close()
}

// TestReclaimerRecyclePattern drives the full unpublish→defer→recycle
// pattern that motivates the API (compare examples/rcucache).
func TestReclaimerRecyclePattern(t *testing.T) {
	dom := NewDomain()
	r := NewReclaimer(dom)
	defer r.Close()

	type obj struct{ invalid atomic.Bool }
	var ptr atomic.Pointer[obj]
	ptr.Store(&obj{})

	stop := make(chan struct{})
	var violations atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		h := dom.Register()
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer h.Unregister()
			for {
				select {
				case <-stop:
					return
				default:
				}
				h.ReadLock()
				if ptr.Load().invalid.Load() {
					violations.Add(1)
				}
				h.ReadUnlock()
			}
		}()
	}

	for i := 0; i < 300; i++ {
		old := ptr.Swap(&obj{})
		r.Defer(func() { old.invalid.Store(true) }) // "recycle"
	}
	r.Barrier()
	close(stop)
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("readers observed %d recycled objects", v)
	}
}

// TestReclaimerNoGoroutineLeak: Close must join the background goroutine
// (the package promises no fire-and-forget goroutines).
func TestReclaimerNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		r := NewReclaimer(NewDomain())
		r.Defer(func() {})
		r.Close()
	}
	// Give the runtime a moment to retire exited goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after 20 reclaimer lifecycles", before, after)
	}
}
