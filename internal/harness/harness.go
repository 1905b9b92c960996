// Package harness runs timed throughput experiments against dict.Map
// implementations, reproducing the methodology of the Citrus paper's §5:
// every worker runs for a fixed wall-clock duration, continuously
// executing randomly chosen operations on randomly chosen keys; the
// reported figure is overall throughput (total operations divided by
// running time), averaged over repetitions.
package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/go-citrus/citrus/internal/dict"
	"github.com/go-citrus/citrus/internal/impls"
	"github.com/go-citrus/citrus/internal/workload"
)

// MixFor assigns a mix to each worker; this generalizes the paper's two
// shapes: the uniform mixes of Figures 8 and 10, and Figure 9's single
// writer with N−1 pure readers.
type MixFor func(worker, totalWorkers int) workload.Mix

// Uniform gives every worker the same mix.
func Uniform(m workload.Mix) MixFor {
	return func(int, int) workload.Mix { return m }
}

// SingleWriter gives worker 0 the 50/50 update mix and everyone else pure
// contains (the paper's Figure 9 workload).
func SingleWriter() MixFor {
	return func(worker, _ int) workload.Mix {
		if worker == 0 {
			return workload.UpdateOnly()
		}
		return workload.ReadOnly()
	}
}

// Config describes one experiment cell.
type Config struct {
	Workers  int
	KeyRange int
	Mix      MixFor
	Duration time.Duration
	Seed     uint64  // base seed; worker w uses Seed+w
	Prefill  bool    // fill to KeyRange/2 before measuring (paper setup)
	Verify   bool    // run CheckInvariants after the measurement
	ZipfS    float64 // > 1: draw keys Zipf(s)-skewed instead of uniformly

	// ScanLen caps the span of OpScan range scans (mixes with ScanPct >
	// 0); spans are drawn Zipf(1.5)-skewed over [1, ScanLen] so short
	// pagination-style windows dominate with a heavy tail of wide
	// sweeps. 0 defaults to KeyRange/64 (at least 16). One scan counts
	// as one operation in Result.Ops regardless of its width; the pairs
	// it visited land in Result.ScanPairs.
	ScanLen int

	// MeasureLatency samples one in 2^sampleShift operations into
	// Result.Latency. The paper reports only throughput; latency
	// percentiles are an extension for tail analysis (e.g. the grace
	// period in Citrus's two-child delete is pure tail).
	MeasureLatency bool
}

// Result is the outcome of one run.
type Result struct {
	Ops       int64         // operations completed across all workers (scans count once each)
	ScanOps   int64         // range scans among Ops
	ScanPairs int64         // pairs emitted by those scans
	Elapsed   time.Duration // measured wall-clock time
	Workers   int
	Procs     int          // effective GOMAXPROCS while the cell ran
	FinalLen  int          // size after the run (0 if Verify is false)
	Latency   *LatencyHist // sampled per-op latency (nil unless measured)
}

// Throughput reports operations per second.
func (r Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// Run executes one experiment cell against a fresh map from factory.
func Run(factory dict.Factory[int, int], cfg Config) (Result, error) {
	if cfg.Workers <= 0 || cfg.KeyRange <= 1 {
		return Result{}, fmt.Errorf("harness: invalid config %+v", cfg)
	}
	m := factory()
	if cfg.Prefill {
		workload.Prefill(m, cfg.KeyRange, int64(cfg.Seed))
	}

	scanLen := cfg.ScanLen
	if scanLen <= 0 {
		scanLen = cfg.KeyRange / 64
		if scanLen < 16 {
			scanLen = 16
		}
	}

	var (
		start      = make(chan struct{})
		stop       atomic.Bool
		total      atomic.Int64
		totalScans atomic.Int64
		totalPairs atomic.Int64
		wg         sync.WaitGroup
		hist       *LatencyHist
	)
	if cfg.MeasureLatency {
		hist = &LatencyHist{}
	}
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := m.NewHandle()
			defer h.Close()
			rng := workload.NewRNG(cfg.Seed + uint64(w)*0x9E3779B97F4A7C15 + 1)
			mix := cfg.Mix(w, cfg.Workers)
			draw := func() int { return rng.Intn(cfg.KeyRange) }
			if cfg.ZipfS > 1 {
				z := workload.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.KeyRange-1))
				draw = func() int { return z.Intn(cfg.KeyRange) }
			}
			var lens *workload.ScanLens
			if mix.ScanPct > 0 {
				lens = workload.NewScanLens(rng, 1.5, scanLen)
			}
			scans, pairs := int64(0), int64(0)
			apply := func(kind workload.OpKind, key int) {
				if kind == workload.OpScan {
					pairs += int64(workload.ApplyScan(h, key, lens.Next()))
					scans++
					return
				}
				workload.ApplyOp(h, kind, key)
			}
			<-start
			ops := int64(0)
			// Check the stop flag every few operations: a per-op atomic
			// load is measurable noise at nanosecond op costs.
			for !stop.Load() {
				for i := 0; i < 32; i++ {
					kind, key := rng.NextOp(mix), draw()
					if hist != nil && uint64(ops+int64(i))&(1<<sampleShift-1) == 0 {
						begin := time.Now()
						apply(kind, key)
						hist.Record(time.Since(begin))
					} else {
						apply(kind, key)
					}
				}
				ops += 32
			}
			total.Add(ops)
			totalScans.Add(scans)
			totalPairs.Add(pairs)
		}(w)
	}

	begin := time.Now()
	close(start)
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(begin)

	// Record the procs actually in effect, not whatever the report
	// header said once at startup: a sweep that resets GOMAXPROCS
	// between reps must label each data point with the value it ran
	// under.
	res := Result{
		Ops:       total.Load(),
		ScanOps:   totalScans.Load(),
		ScanPairs: totalPairs.Load(),
		Elapsed:   elapsed,
		Workers:   cfg.Workers,
		Procs:     runtime.GOMAXPROCS(0),
		Latency:   hist,
	}
	if cfg.Verify {
		if err := m.CheckInvariants(); err != nil {
			return res, fmt.Errorf("%s: post-run invariant violation: %w", m.Name(), err)
		}
		res.FinalLen = m.Len()
	}
	return res, nil
}

// RunAveraged repeats Run `reps` times and returns the arithmetic mean
// throughput, as in the paper ("each experiment was run five times ...
// we report the arithmetic average").
func RunAveraged(factory dict.Factory[int, int], cfg Config, reps int) (float64, error) {
	if reps <= 0 {
		reps = 1
	}
	sum := 0.0
	for i := 0; i < reps; i++ {
		cfg.Seed += uint64(i) * 7919
		res, err := Run(factory, cfg)
		if err != nil {
			return 0, err
		}
		sum += res.Throughput()
	}
	return sum / float64(reps), nil
}

// Cell is one point of a sweep: an implementation at a worker count,
// labeled with the conditions it actually ran under.
type Cell struct {
	Impl       string
	Workers    int
	Procs      int // effective GOMAXPROCS for this cell's runs
	Shards     int // forest shard count; 0 for unsharded implementations
	Throughput float64
}

// Sweep runs cfg at each worker count for each implementation and returns
// all cells in row-major order (implementations outer, workers inner).
func Sweep(series []impls.NamedFactory[int, int], workerCounts []int, cfg Config, reps int) ([]Cell, error) {
	var cells []Cell
	for _, im := range series {
		for _, w := range workerCounts {
			c := cfg
			c.Workers = w
			tp, err := RunAveraged(im.New, c, reps)
			if err != nil {
				return cells, fmt.Errorf("%s @ %d workers: %w", im.Name, w, err)
			}
			cells = append(cells, Cell{
				Impl:       im.Name,
				Workers:    w,
				Procs:      runtime.GOMAXPROCS(0),
				Throughput: tp,
			})
		}
	}
	return cells, nil
}
