package impls

import (
	"sync"
	"testing"

	"github.com/go-citrus/citrus/internal/core"
	"github.com/go-citrus/citrus/internal/dict"
	"github.com/go-citrus/citrus/internal/dicttest"
	"github.com/go-citrus/citrus/rcu"
)

// TestConformance subjects every implementation to the shared battery:
// sequential semantics, delete shapes, oracle-driven random sequences,
// testing/quick property scripts, concurrent stress, and the
// no-false-negative guarantee.
func TestConformance(t *testing.T) {
	for _, f := range All[int, int]() {
		t.Run(f.Name, func(t *testing.T) {
			dicttest.RunAll(t, f.New)
		})
	}
}

// TestConformanceRecyclingCitrus runs the battery over Citrus in the
// configuration where use-after-retirement bugs surface. It used to run
// with node recycling, which is deleted; now every unlinked node goes
// through a reclaimer and is overwritten — poisoned, its child links
// swung to a dead-end sentinel — the moment its grace period ends, the
// instant the recycling pool reused it. A search that still reaches a
// node then walks onto the sentinel: the battery sees a miss, and the
// cleanup counts the trip.
func TestConformanceRecyclingCitrus(t *testing.T) {
	var mu sync.Mutex
	type subject struct {
		tr  *core.Tree[int, int]
		rec *rcu.Reclaimer
	}
	var subjects []subject
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, s := range subjects {
			s.rec.Close() // runs every pending poisoning
			if n := s.tr.PoisonTrips(); n != 0 {
				t.Errorf("%d search(es) walked a node after its grace period", n)
			}
		}
	})
	factory := func() dict.Map[int, int] {
		dom := rcu.NewDomain()
		s := subject{core.NewTree[int, int](dom), rcu.NewReclaimer(dom)}
		s.tr.EnableTorture(s.rec, nil, true)
		mu.Lock()
		subjects = append(subjects, s)
		mu.Unlock()
		return &citrusMap[int, int]{t: s.tr, name: "Citrus (poisoned)"}
	}
	dicttest.RunAll(t, factory)
}

// TestConformanceForest runs the battery over forests at several shard
// counts: the degenerate single shard, a count that doesn't divide
// anything evenly, and a larger power of two. (The 4-shard forest also
// runs via All's registry entry in TestConformance.)
func TestConformanceForest(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		f := ForestFactory[int, int](shards)
		t.Run(f.Name, func(t *testing.T) {
			dicttest.RunAll(t, f.New)
		})
	}
}
