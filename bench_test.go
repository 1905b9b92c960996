// Benchmarks regenerating the measurements behind every figure of the
// Citrus paper's evaluation (§5), as testing.B entry points. Each
// BenchmarkFigure* runs the figure's operation mix on the figure's series
// at a fixed worker count; ns/op is the mean cost of one dictionary
// operation under that mix, so ops/sec = workers·1e9/ns_op is directly
// comparable with the paper's y-axes. cmd/citrusbench runs the full
// wall-clock thread sweeps and prints the paper-shaped tables; these
// benchmarks are the `go test -bench` face of the same cells.
//
// Environment knobs (defaults keep `go test -bench=.` minutes-fast on a
// laptop):
//
//	CITRUS_BENCH_THREADS  worker goroutines per benchmark (default 4)
//	CITRUS_BENCH_FULL=1   use the paper's key ranges (2e5 / 2e6) instead
//	                      of the 100× scaled-down defaults
package citrus_test

import (
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/go-citrus/citrus/internal/harness"
	"github.com/go-citrus/citrus/internal/impls"
	"github.com/go-citrus/citrus/internal/workload"
	"github.com/go-citrus/citrus/rcu"
)

func benchThreads() int {
	if s := os.Getenv("CITRUS_BENCH_THREADS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 4
}

func benchKeyRange(paperRange int) int {
	if os.Getenv("CITRUS_BENCH_FULL") == "1" {
		return paperRange
	}
	return paperRange / 100
}

// runCell runs b.N operations of the figure's mix spread over the bench
// worker count against one implementation.
func runCell(b *testing.B, nf impls.NamedFactory[int, int], mixFor harness.MixFor, keyRange int) {
	b.Helper()
	threads := benchThreads()
	m := nf.New()
	workload.Prefill(m, keyRange, 1)
	b.ResetTimer()

	var next atomic.Int64
	var wg sync.WaitGroup
	const batch = 256
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := m.NewHandle()
			defer h.Close()
			rng := workload.NewRNG(uint64(w)*0x9E3779B97F4A7C15 + 1)
			mix := mixFor(w, threads)
			for {
				start := next.Add(batch) - batch
				if start >= int64(b.N) {
					return
				}
				end := min(start+batch, int64(b.N))
				for i := start; i < end; i++ {
					workload.Apply(h, rng, mix, keyRange)
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	opsPerSec := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(opsPerSec, "ops/s")
}

func benchFigure(b *testing.B, figID string) {
	f, ok := harness.FigureByID(figID)
	if !ok {
		b.Fatalf("unknown figure %s", figID)
	}
	keyRange := benchKeyRange(f.KeyRange)
	for _, nf := range f.Series() {
		b.Run(nf.Name, func(b *testing.B) { runCell(b, nf, f.Mix, keyRange) })
	}
}

// BenchmarkFigure8 compares Citrus over the classic global-lock RCU with
// Citrus over the paper's scalable RCU (50% contains, small key range).
func BenchmarkFigure8(b *testing.B) { benchFigure(b, "8") }

// BenchmarkFigure9a/b: a single updating worker, all others read-only.
func BenchmarkFigure9a(b *testing.B) { benchFigure(b, "9a") }
func BenchmarkFigure9b(b *testing.B) { benchFigure(b, "9b") }

// BenchmarkFigure10a..f: the contains-ratio × key-range grid over the six
// dictionaries.
func BenchmarkFigure10a(b *testing.B) { benchFigure(b, "10a") }
func BenchmarkFigure10b(b *testing.B) { benchFigure(b, "10b") }
func BenchmarkFigure10c(b *testing.B) { benchFigure(b, "10c") }
func BenchmarkFigure10d(b *testing.B) { benchFigure(b, "10d") }
func BenchmarkFigure10e(b *testing.B) { benchFigure(b, "10e") }
func BenchmarkFigure10f(b *testing.B) { benchFigure(b, "10f") }

// BenchmarkRCUPrimitives (ablation A2) measures the read-side cost of the
// three RCU flavors against the synchronization primitives an RCU-less
// design would use instead.
func BenchmarkRCUPrimitives(b *testing.B) {
	b.Run("Domain/ReadLockUnlock", func(b *testing.B) {
		d := rcu.NewDomain()
		r := d.Register()
		defer r.Unregister()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.ReadLock()
			r.ReadUnlock()
		}
	})
	b.Run("ClassicDomain/ReadLockUnlock", func(b *testing.B) {
		d := rcu.NewClassicDomain()
		r := d.Register()
		defer r.Unregister()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.ReadLock()
			r.ReadUnlock()
		}
	})
	b.Run("EpochDomain/ReadLockUnlock", func(b *testing.B) {
		d := rcu.NewEpochDomain()
		r := d.Register()
		defer r.Unregister()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.ReadLock()
			r.ReadUnlock()
		}
	})
	b.Run("RWMutex/RLockRUnlock", func(b *testing.B) {
		var mu sync.RWMutex
		for i := 0; i < b.N; i++ {
			mu.RLock()
			mu.RUnlock()
		}
	})
	b.Run("Mutex/LockUnlock", func(b *testing.B) {
		var mu sync.Mutex
		for i := 0; i < b.N; i++ {
			mu.Lock()
			mu.Unlock()
		}
	})
}

// BenchmarkSynchronize (ablation A1 companion) measures grace-period cost
// for all three flavors, with idle and with actively cycling readers.
func BenchmarkSynchronize(b *testing.B) {
	for _, tc := range []struct {
		name   string
		flavor func() rcu.Flavor
	}{
		{"Domain", func() rcu.Flavor { return rcu.NewDomain() }},
		{"ClassicDomain", func() rcu.Flavor { return rcu.NewClassicDomain() }},
		{"EpochDomain", func() rcu.Flavor { return rcu.NewEpochDomain() }},
	} {
		b.Run(tc.name+"/idleReaders", func(b *testing.B) {
			f := tc.flavor()
			rs := make([]rcu.Reader, 8)
			for i := range rs {
				rs[i] = f.Register()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Synchronize()
			}
			b.StopTimer()
			for _, r := range rs {
				r.Unregister()
			}
		})
		b.Run(tc.name+"/activeReaders", func(b *testing.B) {
			f := tc.flavor()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for i := 0; i < 4; i++ {
				r := f.Register()
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer r.Unregister()
					for {
						select {
						case <-stop:
							return
						default:
						}
						r.ReadLock()
						r.ReadUnlock()
					}
				}()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Synchronize()
			}
			b.StopTimer()
			close(stop)
			wg.Wait()
		})
	}
}

// BenchmarkAblationTwoChildDelete isolates the operation that pays for a
// grace period in Citrus: deleting a node with two children, compared to
// reinserting it (no grace period).
func BenchmarkAblationTwoChildDelete(b *testing.B) {
	m := impls.NewCitrus[int, int]()
	h := m.NewHandle()
	defer h.Close()
	// A full binary layout: node 2 always has children 1 and 3 when
	// present, so Delete(2) always takes the successor path.
	h.Insert(2, 2)
	h.Insert(1, 1)
	h.Insert(3, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !h.Delete(2) {
			b.Fatal("delete failed")
		}
		if !h.Insert(2, 2) {
			b.Fatal("insert failed")
		}
	}
}

// BenchmarkAblationSkew (extension beyond the paper) runs the Figure 10c
// mix with Zipf(1.2)-skewed keys: updates pile onto a few hot subtrees,
// separating designs whose update synchronization is per-node from those
// whose bottleneck is global anyway.
func BenchmarkAblationSkew(b *testing.B) {
	keyRange := benchKeyRange(harness.KeyRangeSmall)
	threads := benchThreads()
	for _, nf := range impls.Figure[int, int]() {
		b.Run(nf.Name, func(b *testing.B) {
			m := nf.New()
			workload.Prefill(m, keyRange, 1)
			b.ResetTimer()
			var next atomic.Int64
			var wg sync.WaitGroup
			const batch = 256
			for w := 0; w < threads; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					h := m.NewHandle()
					defer h.Close()
					rng := workload.NewRNG(uint64(w)*0x9E3779B97F4A7C15 + 1)
					z := workload.NewZipf(rng, 1.2, 1, uint64(keyRange-1))
					mix := workload.ReadMostly(50)
					for {
						start := next.Add(batch) - batch
						if start >= int64(b.N) {
							return
						}
						end := min(start+batch, int64(b.N))
						for i := start; i < end; i++ {
							workload.ApplyOp(h, rng.NextOp(mix), z.Intn(keyRange))
						}
					}
				}(w)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// BenchmarkContainsScaling pins down the wait-free read path of each
// structure at the bench thread count on a read-only workload.
func BenchmarkContainsScaling(b *testing.B) {
	keyRange := benchKeyRange(harness.KeyRangeSmall)
	for _, nf := range impls.All[int, int]() {
		b.Run(nf.Name, func(b *testing.B) {
			runCell(b, nf, harness.Uniform(workload.ReadOnly()), keyRange)
		})
	}
}
