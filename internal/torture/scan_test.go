package torture

import (
	"strings"
	"testing"
	"time"
)

// TestScanStormManySeeds: the acceptance gate for the scan scenario —
// ten distinct injection schedules of scan-heavy churn (half the
// workers running batched scans) must all pass, including the in-flight
// weak-consistency checks on every scan and the grace-period rule: the
// median grace period stays below the stall threshold. CI runs this
// under -race as well as without. Under -short, seeds 1–3.
func TestScanStormManySeeds(t *testing.T) {
	dur, seeds := 300*time.Millisecond, uint64(10)
	if testing.Short() {
		dur, seeds = 150*time.Millisecond, 3
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		v, err := Run(Config{
			Seed:     seed,
			Duration: dur,
			Threads:  8,
			KeyRange: 64,
			Flavor:   "scanstorm",
		})
		if err != nil {
			t.Fatal(err)
		}
		if !v.Passed {
			t.Fatalf("seed %d: scanstorm failed: %v (history: %v)", seed, v.Failures, v.MinimalHistory)
		}
		if v.ScanOps == 0 || v.ScanPairs == 0 {
			t.Fatalf("seed %d: no scan work recorded (ops %d, pairs %d)", seed, v.ScanOps, v.ScanPairs)
		}
		med := v.SyncWait.Percentile(50)
		if med >= stallThreshold {
			t.Fatalf("seed %d: batched scans held the median grace period at %v, at or past %v", seed, med, stallThreshold)
		}
		t.Logf("seed %d: median grace period %v over %d", seed, med, v.SyncWait.Total())
	}
}

// TestScanStormForest: the sharded configuration under the same
// scenario — per-shard domains, scans merging across shards.
func TestScanStormForest(t *testing.T) {
	v, err := Run(Config{
		Seed:     3,
		Duration: 400 * time.Millisecond,
		Threads:  8,
		KeyRange: 64,
		Impl:     "forest",
		Flavor:   "scanstorm",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Passed {
		t.Fatalf("forest scanstorm failed: %v", v.Failures)
	}
	if v.ScanOps == 0 {
		t.Fatal("forest scanstorm completed no scans")
	}
}

// TestNegativeControlScanHog: the scan-discipline negative control.
// Unbatched full-range scans with a slow consumer hold the read-side
// critical section for tens of milliseconds while churn needs grace
// periods: the typical grace period MUST wait out a scan, and the
// harness MUST turn that into a failing verdict by the grace-period
// rule. Fixed seed: a regression here is a deterministic repro. Under
// -short it runs for 1 s instead of 2.
func TestNegativeControlScanHog(t *testing.T) {
	dur := 2 * time.Second
	if testing.Short() {
		dur = time.Second
	}
	v, err := Run(Config{
		Seed:     11,
		Duration: dur,
		Threads:  8,
		KeyRange: 64,
		Flavor:   "scanhog",
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Passed {
		t.Fatalf("torture passed the scanhog negative control: verdict %+v", v)
	}
	med := v.SyncWait.Percentile(50)
	if med < stallThreshold {
		t.Fatalf("scanhog failed for the wrong reason — the median grace period %v is below %v: %v", med, stallThreshold, v.Failures)
	}
	found := false
	for _, f := range v.Failures {
		if strings.Contains(f, "scan grace-period rule") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no failure names the grace-period rule: %v", v.Failures)
	}
	t.Logf("scanhog tripped: median grace period %v over %d, %d stall reports, %d scans",
		med, v.SyncWait.Total(), v.StallReports, v.ScanOps)
}

// TestScanReadersInDefaultRounds: scan readers are not scenario-only —
// plain rounds dedicate a quarter of the workers to scanning, on citrus
// and on registry subjects alike.
func TestScanReadersInDefaultRounds(t *testing.T) {
	for _, cfg := range []Config{
		{Seed: 5, Duration: 200 * time.Millisecond, Threads: 8, KeyRange: 64},
		{Seed: 5, Duration: 200 * time.Millisecond, Threads: 8, KeyRange: 64, Impl: "Skiplist"},
	} {
		v, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Passed {
			t.Fatalf("%q: %v", cfg.Impl, v.Failures)
		}
		if v.ScanOps == 0 {
			t.Fatalf("%q: default rounds ran no scans", cfg.Impl)
		}
	}
}
