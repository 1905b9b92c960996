package impls_test

import (
	"sync"
	"testing"

	"github.com/go-citrus/citrus/internal/dict"
	"github.com/go-citrus/citrus/internal/dicttest"
	"github.com/go-citrus/citrus/internal/impls"
	"github.com/go-citrus/citrus/internal/torture"
	"github.com/go-citrus/citrus/rcu"
)

// TestConformanceRecyclingCitrus runs the battery over Citrus in the
// configuration where use-after-retirement bugs surface. It used to run
// with node recycling, which is deleted; now the tree is built on a
// torture.Oracle, so every unlinked node goes through the oracle's
// reclaimer, is checked against the readers still inside their critical
// sections, and is overwritten — poisoned, its child links swung to a
// dead-end sentinel — the moment its grace period ends, the instant the
// recycling pool reused it. A search that still reaches a node then
// walks onto the sentinel: the battery sees a miss, and the cleanup
// counts the trip. (An external test package: torture imports impls.)
func TestConformanceRecyclingCitrus(t *testing.T) {
	var mu sync.Mutex
	var oracles []*torture.Oracle
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, o := range oracles {
			o.Close() // runs every pending check and poisoning
			if n, err := o.Report(); n != 0 {
				t.Errorf("%d reclamation failure(s); first: %v", n, err)
			}
		}
	})
	factory := func() dict.Map[int, int] {
		o := torture.NewOracle(rcu.NewDomain())
		mu.Lock()
		oracles = append(oracles, o)
		mu.Unlock()
		return impls.NewCitrusWithFlavor[int, int](o, "Citrus (poisoned)")
	}
	dicttest.RunAll(t, factory)
}
