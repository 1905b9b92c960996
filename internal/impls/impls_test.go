package impls

import (
	"testing"

	"github.com/go-citrus/citrus/internal/dicttest"
)

// TestConformance subjects every implementation to the shared battery:
// sequential semantics, delete shapes, oracle-driven random sequences,
// testing/quick property scripts, concurrent stress, and the
// no-false-negative guarantee. Under -short only Citrus runs here;
// TestConformanceRecyclingCitrus and TestConformanceForest still run.
func TestConformance(t *testing.T) {
	for _, f := range All[int, int]() {
		if testing.Short() && f.Name != NameCitrus {
			continue
		}
		t.Run(f.Name, func(t *testing.T) {
			dicttest.RunAll(t, f.New)
		})
	}
}

// TestConformanceForest runs the battery over forests at several shard
// counts: the degenerate single shard, a count that doesn't divide
// anything evenly, and a larger power of two. (The 4-shard forest also
// runs via All's registry entry in TestConformance.) Under -short only
// the 3-shard forest runs.
func TestConformanceForest(t *testing.T) {
	shardCounts := []int{1, 3, 8}
	if testing.Short() {
		shardCounts = []int{3}
	}
	for _, shards := range shardCounts {
		f := ForestFactory[int, int](shards)
		t.Run(f.Name, func(t *testing.T) {
			dicttest.RunAll(t, f.New)
		})
	}
}
