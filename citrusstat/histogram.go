// Package citrusstat holds the shared measurement primitives of the
// Citrus reproduction: a lock-free power-of-two latency histogram used
// both by the benchmark harness (per-operation latency) and by the
// library's runtime observability layer (grace-period waits, see
// rcu.Stats and citrus.Forest.Stats).
//
// Everything here is safe for concurrent use and deliberately cheap to
// record into: one uncontended-atomic add per sample, no locks, no
// allocation.
package citrusstat

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the number of power-of-two histogram buckets; bucket i
// counts samples in [2^i, 2^(i+1)) nanoseconds, which spans 1ns to
// ~4.6h — more than any dictionary operation or grace period.
const NumBuckets = 44

// Histogram is a lock-free power-of-two duration histogram. Record may
// be called from any number of goroutines; the zero value is ready to
// use. Alongside the bucketed counts it keeps an exact nanosecond sum,
// so Mean is not subject to bucket-resolution error.
type Histogram struct {
	counts [NumBuckets]atomic.Int64
	sum    atomic.Int64 // exact nanoseconds across all samples
}

// Record adds one sample. Non-positive durations — a clock that went
// backwards, or a wait shorter than the clock's resolution — are clamped
// to 1ns for both the sum and the bucket, so Total, Sum and Mean stay
// mutually consistent (a clamped sample contributes exactly 1ns, never a
// counted-but-sumless entry that would skew Mean low).
func (h *Histogram) Record(d time.Duration) {
	n := d.Nanoseconds()
	if n < 1 {
		n = 1
	}
	h.sum.Add(n)
	b := 63 - bits.LeadingZeros64(uint64(n))
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	h.counts[b].Add(1)
}

// Snapshot returns a consistent-enough point-in-time copy: each bucket
// is loaded atomically, so totals are exact for any quiescent moment and
// at most one in-flight sample off per recording goroutine otherwise.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.SumNanos = h.sum.Load()
	return s
}

// Total reports the number of recorded samples.
func (h *Histogram) Total() int64 { return h.Snapshot().Total() }

// Sum reports the exact cumulative duration of all samples.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Mean reports the exact average sample, or 0 with no samples.
func (h *Histogram) Mean() time.Duration { return h.Snapshot().Mean() }

// Percentile estimates the p-th percentile (p in [0, 100]); see
// Snapshot.Percentile for the estimation contract.
func (h *Histogram) Percentile(p float64) time.Duration { return h.Snapshot().Percentile(p) }

// Summary formats the standard percentiles.
func (h *Histogram) Summary() string { return h.Snapshot().Summary() }

// A Snapshot is a plain-value copy of a Histogram, safe to retain,
// compare, serialize (it marshals to JSON as counts plus an exact
// nanosecond sum), and query without further synchronization.
type Snapshot struct {
	Counts   [NumBuckets]int64 `json:"counts"`
	SumNanos int64             `json:"sum_nanos"`
}

// Total reports the number of samples in the snapshot.
func (s Snapshot) Total() int64 {
	var t int64
	for _, c := range s.Counts {
		t += c
	}
	return t
}

// Sum reports the exact cumulative duration of the snapshot's samples.
func (s Snapshot) Sum() time.Duration { return time.Duration(s.SumNanos) }

// Mean reports the exact average sample, or 0 with no samples.
func (s Snapshot) Mean() time.Duration {
	n := s.Total()
	if n == 0 {
		return 0
	}
	return time.Duration(s.SumNanos / n)
}

// Percentile estimates the p-th percentile (p in [0, 100]; values
// outside clamp). The winning log2 bucket is found by cumulative rank
// and the return value interpolates linearly within that bucket's
// [2^i, 2^(i+1)) span, assuming samples spread uniformly inside it —
// so the estimate moves smoothly with p instead of jumping between
// power-of-two ceilings. The result is always within the winning
// bucket: no lower than its lower edge, no higher than its upper edge
// (p=100 returns the highest occupied bucket's upper edge, the old
// ceiling behavior, so it stays a true upper bound). Percentile is
// monotonically non-decreasing in p.
func (s Snapshot) Percentile(p float64) time.Duration {
	total := s.Total()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	} else if p > 100 {
		p = 100
	}
	// want is the fractional rank of the requested percentile, clamped
	// to [1, total] so p=0 lands at the first sample and p=100 at the
	// last.
	want := p / 100 * float64(total)
	if want < 1 {
		want = 1
	}
	var seen int64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if float64(seen+c) >= want {
			lo := float64(uint64(1) << uint(i))
			hi := float64(uint64(1) << uint(i+1))
			frac := (want - float64(seen)) / float64(c)
			return time.Duration(lo + (hi-lo)*frac)
		}
		seen += c
	}
	return time.Duration(uint64(1) << NumBuckets)
}

// Summary formats the standard percentiles.
func (s Snapshot) Summary() string {
	if s.Total() == 0 {
		return "no latency samples"
	}
	return fmt.Sprintf("p50≈%v p99≈%v p99.9≈%v (n=%d sampled)",
		s.Percentile(50), s.Percentile(99), s.Percentile(99.9), s.Total())
}

// Merge folds other into s bucket-wise: counts add per bucket and the
// exact sums add. Both snapshots live on the same log2 bucket lattice,
// so the merge is exact — the result is indistinguishable from one
// histogram that recorded both sample streams. This is the fold behind
// forest-wide stats (citrus.ForestStats) and any cross-shard metric
// aggregation.
func (s *Snapshot) Merge(other Snapshot) {
	for i := range s.Counts {
		s.Counts[i] += other.Counts[i]
	}
	s.SumNanos += other.SumNanos
}

// Sub returns the per-bucket difference s − prev: the samples recorded
// between the two snapshots. Useful for interval-rate reporting against
// a monotonically growing histogram.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	var d Snapshot
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i] - prev.Counts[i]
	}
	d.SumNanos = s.SumNanos - prev.SumNanos
	return d
}
