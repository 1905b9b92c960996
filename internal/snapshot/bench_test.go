package snapshot

import (
	"fmt"
	"strconv"
	"testing"

	citrus "github.com/go-citrus/citrus"
	"github.com/go-citrus/citrus/rcu"
)

// BenchmarkSnapshotRecover is kvserver's snapshot recovery on its own:
// it loads a snapshot of 30 000 ascending keys — the order the fuzzy
// scan writes — into a recycling Citrus tree over rcu.Domain, with the
// reclaimer watermarks kvserver uses by default (-reclaim-high 1024,
// -reclaim-cap 8192), and reports the height of the tree it built.
func BenchmarkSnapshotRecover(b *testing.B) {
	const n = 30000
	dir := b.TempDir()
	file, keys, err := Write(dir, 1, func(emit func(int64, string) error) error {
		for k := int64(0); k < n; k++ {
			if err := emit(k, "v"+strconv.FormatInt(k, 10)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := Publish(dir, file, 1, keys); err != nil {
		b.Fatal(err)
	}
	var tree *citrus.Tree[int64, string]
	for b.Loop() {
		dom := rcu.NewDomain()
		rec := rcu.NewReclaimer(dom, rcu.WithHighWatermark(1024), rcu.WithHardCap(8192))
		tree = citrus.NewWithRecycling[int64, string](dom, rec)
		h := tree.NewHandle()
		_, _, err := Load(dir, func(k int64, v string) error {
			if !h.Insert(k, v) {
				return fmt.Errorf("snapshot key %d already present", k)
			}
			return nil
		})
		h.Close()
		rec.Close()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tree.Height()), "height")
}
