package snapshot

import (
	"fmt"
	"strconv"
	"testing"

	citrus "github.com/go-citrus/citrus"
)

// benchPairs is the snapshot both benchmarks use: 30 000 ascending keys,
// the order the fuzzy scan writes, with short distinct values.
const benchPairs = 30000

func benchValues() []string {
	vs := make([]string, benchPairs)
	for k := range vs {
		vs[k] = "v" + strconv.Itoa(k)
	}
	return vs
}

// BenchmarkSnapshotRecover is snapshot recovery on its own, from a
// snapshot of 30 000 ascending keys, reporting the height of what it
// built and its allocations:
//
//   - graft/shards=N is kvserver's path: ReadSorted, then
//     citrus.Forest.LoadAscending into an N-shard forest;
//   - levelorder is the path for callers that can only insert (the
//     benchmark's replay): Load, inserting each pair in level order into
//     a Citrus tree over rcu.Domain.
func BenchmarkSnapshotRecover(b *testing.B) {
	dir := b.TempDir()
	vs := benchValues()
	file, keys, err := Write(dir, 1, func(emit func(int64, string) error) error {
		for k, v := range vs {
			if err := emit(int64(k), v); err != nil {
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
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("graft/shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			var f *citrus.Forest[int64, string]
			for b.Loop() {
				f = citrus.NewForest[int64, string](shards)
				_, ks, vs, err := ReadSorted(dir)
				if err != nil {
					b.Fatal(err)
				}
				if err := f.LoadAscending(ks, vs); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(f.Height()), "height")
		})
	}
	b.Run("levelorder", func(b *testing.B) {
		b.ReportAllocs()
		var tree *citrus.Forest[int64, string]
		for b.Loop() {
			tree = citrus.New[int64, string]()
			h := tree.NewHandle()
			_, _, err := Load(dir, func(k int64, v string) error {
				if !h.Insert(k, v) {
					return fmt.Errorf("snapshot key %d already present", k)
				}
				return nil
			})
			h.Close()
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(tree.Height()), "height")
	})
}

// BenchmarkSnapshotWrite writes a snapshot of 30 000 pairs, fsync and
// rename included, and reports its allocations per Write: a fixed
// handful, none per record.
func BenchmarkSnapshotWrite(b *testing.B) {
	dir := b.TempDir()
	vs := benchValues()
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := Write(dir, 1, func(emit func(int64, string) error) error {
			for k, v := range vs {
				if err := emit(int64(k), v); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}
