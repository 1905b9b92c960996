package citrusstat

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	if h.Total() != 0 {
		t.Fatal("empty histogram has samples")
	}
	if h.Percentile(99) != 0 {
		t.Fatal("empty histogram has a percentile")
	}
	if h.Mean() != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram has a mean/sum")
	}
	if h.Summary() != "no latency samples" {
		t.Fatalf("Summary() = %q", h.Summary())
	}
}

func TestHistogramBucketing(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Record(100 * time.Nanosecond)
	}
	for i := 0; i < 10; i++ {
		h.Record(time.Millisecond)
	}
	if got := h.Total(); got != 1010 {
		t.Fatalf("Total() = %d", got)
	}
	// 100ns lands in bucket [64ns, 128ns); the interpolated p50 must
	// stay inside that bucket instead of jumping to the 128ns ceiling.
	if p50 := h.Percentile(50); p50 < 64*time.Nanosecond || p50 >= 128*time.Nanosecond {
		t.Fatalf("p50 = %v, want within [64ns, 128ns)", p50)
	}
	// 1ms lands in bucket [524µs, 1.05ms); p99.9 interpolates inside it.
	if p999 := h.Percentile(99.9); p999 < 524288*time.Nanosecond || p999 > 1048576*time.Nanosecond {
		t.Fatalf("p99.9 = %v, want within 1ms's bucket [524µs, 1.05ms]", p999)
	}
	if h.Percentile(100) < h.Percentile(50) {
		t.Fatal("percentiles not monotone")
	}
}

// TestPercentileInterpolation pins the interpolated-percentile contract
// on known sample sets: results land inside the winning bucket (never
// the old power-of-two ceiling unless p=100), the estimate moves with p
// within one bucket, p0/p100 hit the occupied extremes, and the whole
// function is monotone in p.
func TestPercentileInterpolation(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(1000 * time.Nanosecond) // bucket [512, 1024)
	}
	s := h.Snapshot()
	// All mass in one bucket: p traverses [512, 1024) linearly.
	if p1 := s.Percentile(1); p1 < 512*time.Nanosecond || p1 > 530*time.Nanosecond {
		t.Fatalf("p1 = %v, want just above the 512ns bucket floor", p1)
	}
	p25, p50, p75 := s.Percentile(25), s.Percentile(50), s.Percentile(75)
	if !(p25 < p50 && p50 < p75) {
		t.Fatalf("within-bucket interpolation is flat: p25=%v p50=%v p75=%v", p25, p50, p75)
	}
	if p50 < 700*time.Nanosecond || p50 > 850*time.Nanosecond {
		t.Fatalf("p50 = %v, want ≈768ns (midpoint-ish of [512, 1024))", p50)
	}
	// p0 clamps to the first sample; p100 is the bucket's upper edge —
	// still a true upper bound for every recorded sample.
	if p0 := s.Percentile(0); p0 < 512*time.Nanosecond || p0 >= 1024*time.Nanosecond {
		t.Fatalf("p0 = %v, want inside [512ns, 1024ns)", p0)
	}
	if p100 := s.Percentile(100); p100 != 1024*time.Nanosecond {
		t.Fatalf("p100 = %v, want the 1024ns bucket ceiling", p100)
	}
	// Out-of-range p clamps rather than extrapolating.
	if s.Percentile(-5) != s.Percentile(0) || s.Percentile(200) != s.Percentile(100) {
		t.Fatal("out-of-range p must clamp to [0, 100]")
	}

	// Two-bucket set: 90 fast, 10 slow. p90 boundary stays in the fast
	// bucket; p91+ crosses into the slow one; monotone throughout.
	var h2 Histogram
	for i := 0; i < 90; i++ {
		h2.Record(100 * time.Nanosecond) // bucket [64, 128)
	}
	for i := 0; i < 10; i++ {
		h2.Record(time.Millisecond) // bucket [524288, 1048576)
	}
	s2 := h2.Snapshot()
	if p := s2.Percentile(50); p < 64*time.Nanosecond || p >= 128*time.Nanosecond {
		t.Fatalf("p50 = %v, want in the fast bucket", p)
	}
	if p := s2.Percentile(95); p < 524288*time.Nanosecond || p > 1048576*time.Nanosecond {
		t.Fatalf("p95 = %v, want in the slow bucket", p)
	}
	prev := time.Duration(-1)
	for p := 0.0; p <= 100; p += 0.5 {
		cur := s2.Percentile(p)
		if cur < prev {
			t.Fatalf("Percentile not monotone: p=%v gave %v after %v", p, cur, prev)
		}
		prev = cur
	}
}

// TestSnapshotMerge pins Merge exactness: merging two snapshots on the
// shared log2 lattice is indistinguishable from recording both sample
// streams into one histogram.
func TestSnapshotMerge(t *testing.T) {
	var a, b, both Histogram
	samples := []struct {
		h *Histogram
		d time.Duration
	}{
		{&a, 100 * time.Nanosecond}, {&a, 3 * time.Microsecond}, {&a, time.Millisecond},
		{&b, 80 * time.Nanosecond}, {&b, 90 * time.Second}, {&b, time.Nanosecond},
	}
	for _, s := range samples {
		s.h.Record(s.d)
		both.Record(s.d)
	}
	merged := a.Snapshot()
	merged.Merge(b.Snapshot())
	if merged != both.Snapshot() {
		t.Fatalf("Merge is not exact:\n got %+v\nwant %+v", merged, both.Snapshot())
	}
	if merged.Total() != 6 || merged.Sum() != both.Sum() {
		t.Fatalf("merged totals wrong: n=%d sum=%v", merged.Total(), merged.Sum())
	}
	// Merging an empty snapshot is the identity.
	id := a.Snapshot()
	id.Merge(Snapshot{})
	if id != a.Snapshot() {
		t.Fatal("merging an empty snapshot changed the receiver")
	}
}

func TestHistogramExactSumAndMean(t *testing.T) {
	var h Histogram
	h.Record(100 * time.Nanosecond)
	h.Record(300 * time.Nanosecond)
	if got := h.Sum(); got != 400*time.Nanosecond {
		t.Fatalf("Sum() = %v, want 400ns exactly", got)
	}
	if got := h.Mean(); got != 200*time.Nanosecond {
		t.Fatalf("Mean() = %v, want 200ns exactly", got)
	}
}

func TestHistogramExtremes(t *testing.T) {
	var h Histogram
	h.Record(0)              // clamps to 1ns in both the bucket and the sum
	h.Record(10 * time.Hour) // clamps to the top bucket, exact in the sum
	if h.Total() != 2 {
		t.Fatal("clamped samples lost")
	}
	if h.Sum() != 10*time.Hour+time.Nanosecond {
		t.Fatalf("Sum() = %v", h.Sum())
	}
}

// TestHistogramNonPositiveClampConsistent pins the Record contract for
// non-positive samples: each is clamped to 1ns in BOTH the bucket and
// the sum, so Total, Sum and Mean agree. Before this was pinned,
// negative durations (a clock stepping backwards mid-wait) were counted
// in bucket 0 but excluded from the sum, silently dragging Mean below
// every recorded sample.
func TestHistogramNonPositiveClampConsistent(t *testing.T) {
	var h Histogram
	h.Record(-5 * time.Nanosecond)
	h.Record(0)
	if got := h.Total(); got != 2 {
		t.Fatalf("Total() = %d, want 2", got)
	}
	if got := h.Sum(); got != 2*time.Nanosecond {
		t.Fatalf("Sum() = %v, want 2ns (each clamped sample contributes 1ns)", got)
	}
	if got := h.Mean(); got != time.Nanosecond {
		t.Fatalf("Mean() = %v, want 1ns", got)
	}
	if got := h.Snapshot().Counts[0]; got != 2 {
		t.Fatalf("bucket 0 count = %d, want 2", got)
	}
}

func TestSnapshotSubAndJSON(t *testing.T) {
	var h Histogram
	h.Record(time.Microsecond)
	before := h.Snapshot()
	h.Record(time.Microsecond)
	h.Record(2 * time.Microsecond)
	delta := h.Snapshot().Sub(before)
	if delta.Total() != 2 {
		t.Fatalf("delta Total() = %d, want 2", delta.Total())
	}
	if delta.Sum() != 3*time.Microsecond {
		t.Fatalf("delta Sum() = %v, want 3µs", delta.Sum())
	}

	raw, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Total() != 3 || back.SumNanos != h.Snapshot().SumNanos {
		t.Fatalf("JSON round-trip lost data: %+v", back)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(i) * time.Nanosecond)
			}
		}()
	}
	wg.Wait()
	if got := h.Total(); got != goroutines*per {
		t.Fatalf("Total() = %d, want %d", got, goroutines*per)
	}
}
