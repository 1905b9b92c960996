// rcucache: using package rcu on its own, outside any tree.
//
// A classic RCU deployment: a read-mostly configuration object, updated
// by swapping an atomic pointer. In Go the garbage collector already
// keeps the *old* config alive while readers hold it — what the GC does
// NOT give you is a point in time after which no reader can still be
// using it. That matters the moment the old object's resources are
// recycled rather than dropped: returned to a pool, reused as a buffer,
// handed back to a C library, or — as in the Citrus tree itself —
// left physically linked in a structure that readers are still crossing.
//
// Here each config carries a payload buffer that the writer recycles
// into the next config. The writer swaps in a new config, calls
// Synchronize to wait out all pre-existing read-side critical sections,
// and only then scribbles over the old payload. Readers checksum the
// payload inside their critical section; a checksum mismatch would mean
// a reader observed a recycled buffer. With the grace period the count
// is provably zero. Pass -skip-grace-period to remove the Synchronize
// call and watch the torn reads appear (they are a race, so the count
// varies — any nonzero count is a correctness bug in a real system).
//
// Run with:
//
//	go run ./examples/rcucache
//	go run ./examples/rcucache -skip-grace-period
package main

import (
	"flag"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/go-citrus/citrus/rcu"
)

const payloadWords = 512

// config is the shared read-mostly object. version is woven through the
// payload so a reader can detect observing a half-recycled buffer.
type config struct {
	version uint64
	payload []uint64 // every word equals version (the reader's checksum)
}

func newConfig(version uint64, buf []uint64) *config {
	if buf == nil {
		buf = make([]uint64, payloadWords)
	}
	for i := range buf {
		buf[i] = version
	}
	return &config{version: version, payload: buf}
}

// valid checksums the payload inside the caller's critical section.
func (c *config) valid() bool {
	for _, w := range c.payload {
		if w != c.version {
			return false
		}
	}
	return true
}

func main() {
	skipGrace := flag.Bool("skip-grace-period", false, "recycle the old payload without waiting for readers (demonstrates the bug)")
	duration := flag.Duration("duration", time.Second, "how long to run")
	readers := flag.Int("readers", 4, "reader goroutines")
	flag.Parse()

	dom := rcu.NewDomain()
	var current atomic.Pointer[config]
	current.Store(newConfig(1, nil))

	var (
		stop    atomic.Bool
		reads   atomic.Int64
		torn    atomic.Int64
		reloads int64
		wg      sync.WaitGroup
	)

	for r := 0; r < *readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := dom.Register()
			defer h.Unregister()
			for !stop.Load() {
				h.ReadLock()
				cfg := current.Load()
				if !cfg.valid() {
					torn.Add(1)
				}
				h.ReadUnlock()
				reads.Add(1)
			}
		}()
	}

	// The writer: swap in a new config, wait a grace period, recycle the
	// old payload buffer into the next config.
	writer := dom.Register()
	deadline := time.Now().Add(*duration)
	var spare []uint64
	for time.Now().Before(deadline) {
		old := current.Load()
		next := newConfig(old.version+1, spare)
		current.Store(next)
		if !*skipGrace {
			writer.Synchronize() // no pre-existing reader still holds old
		}
		// Reuse: overwrite the old payload. If a reader could still be
		// inside a critical section holding `old`, this write would be
		// visible to it as a torn config.
		for i := range old.payload {
			old.payload[i] = ^uint64(0)
		}
		spare = old.payload
		reloads++
	}
	writer.Unregister()
	stop.Store(true)
	wg.Wait()

	mode := "with grace periods"
	if *skipGrace {
		mode = "WITHOUT grace periods"
	}
	fmt.Printf("%s: %d reloads, %d reads, %d torn reads\n",
		mode, reloads, reads.Load(), torn.Load())
	switch {
	case *skipGrace && torn.Load() > 0:
		fmt.Println("→ recycling before the grace period let readers observe reused memory.")
	case *skipGrace:
		fmt.Println("→ no torn read this time — it is a race, not a guarantee. Run again.")
	default:
		fmt.Println("→ Synchronize guarantees zero torn reads: every reader that could")
		fmt.Println("  hold the old config finished before its buffer was recycled.")
	}
}
