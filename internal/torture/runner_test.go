package torture

import (
	"strings"
	"testing"
	"time"
)

// The negative controls: torture runs against deliberately broken
// builds must FAIL, quickly and attributably — they are the "tests for
// the tests" (docs/VERIFICATION.md). Each uses a fixed seed so a
// regression here is a deterministic repro, not a flake.

// TestNegativeControlNoSync: Citrus over a flavor whose Synchronize
// returns immediately must be caught — by the reclamation oracle, the
// poison tripwire, or a false negative on a permanent key — and so must
// the shipped forest with every shard on that flavor, by a failure that
// names the shard.
func TestNegativeControlNoSync(t *testing.T) {
	for _, tc := range []struct {
		impl string
		seed uint64
	}{{"citrus", 1}, {"forest", 3}} {
		t.Run(tc.impl, func(t *testing.T) {
			v, err := Run(Config{
				Seed:     tc.seed,
				Duration: 4 * time.Second,
				Threads:  8,
				KeyRange: 64,
				Impl:     tc.impl,
				Flavor:   "nosync",
			})
			if err != nil {
				t.Fatal(err)
			}
			if v.Passed {
				t.Fatalf("torture passed the nosync mutant: verdict %+v", v)
			}
			if tc.impl == "forest" && !strings.Contains(strings.Join(v.Failures, "\n"), "shard ") {
				t.Fatalf("no forest failure names a shard: %v", v.Failures)
			}
			t.Logf("nosync caught in %dms after %d ops: %v", v.ElapsedMS, v.Ops, v.Failures)
		})
	}
}

// TestNegativeControlSnapEarly: the combining mutant that computes its
// sequence target one grace-period stride early — releasing a
// Synchronize caller before pre-existing readers finish — must be
// caught, proving the oracle suite covers the combining protocol's one
// soundness obligation and not just an absent Synchronize.
func TestNegativeControlSnapEarly(t *testing.T) {
	v, err := Run(Config{
		Seed:     1,
		Duration: 4 * time.Second,
		Threads:  8,
		KeyRange: 64,
		Flavor:   "snapearly",
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Passed {
		t.Fatalf("torture passed the snapearly mutant: verdict %+v", v)
	}
	t.Logf("snapearly caught in %dms after %d ops: %v", v.ElapsedMS, v.Ops, v.Failures)
}

// TestNegativeControlEBREarly: the epoch-flavor mutant whose advance
// threshold is computed one epoch early — so Synchronize never waits
// for readers pinned at the entry epoch — must be caught on its pinned
// seed, proving the reclamation oracle bites on the EBR design too and
// an ebr PASS means something.
func TestNegativeControlEBREarly(t *testing.T) {
	v, err := Run(Config{
		Seed:     1,
		Duration: 4 * time.Second,
		Threads:  8,
		KeyRange: 64,
		Flavor:   "ebrearly",
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Passed {
		t.Fatalf("torture passed the ebrearly mutant: verdict %+v", v)
	}
	t.Logf("ebrearly caught in %dms after %d ops: %v", v.ElapsedMS, v.Ops, v.Failures)
}

// TestRealBuildSurvivesManySeeds: the correct tree on all three flavors
// must pass under distinct injection schedules — the oracle suite has
// no false positives. Ten seeds per the acceptance criteria; under
// -short, seeds 1–3, one per flavor.
func TestRealBuildSurvivesManySeeds(t *testing.T) {
	dur, seeds := 250*time.Millisecond, uint64(10)
	if testing.Short() {
		dur, seeds = 120*time.Millisecond, 3
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		flavor := "scalable"
		switch seed % 3 {
		case 0:
			flavor = "classic"
		case 1:
			flavor = "ebr"
		}
		v, err := Run(Config{
			Seed:     seed,
			Duration: dur,
			Threads:  8,
			KeyRange: 64,
			Flavor:   flavor,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !v.Passed {
			t.Fatalf("seed %d (%s): correct build failed torture: %v (history: %v)",
				seed, flavor, v.Failures, v.MinimalHistory)
		}
		if total := totalHits(v.PointHits); total == 0 {
			t.Fatalf("seed %d: no schedule points fired; the injection layer is dead", seed)
		}
		if v.ReclaimChecks == 0 {
			t.Fatalf("seed %d: the oracle checked no reclamations; the torture wiring is dead", seed)
		}
	}
}

func totalHits(hits map[string]uint64) uint64 {
	var n uint64
	for _, h := range hits {
		n += h
	}
	return n
}

// TestSeedReproducesFailure: the replay story — rerunning a failing
// configuration with its printed seed fails again.
func TestSeedReproducesFailure(t *testing.T) {
	cfg := Config{
		Seed:     42,
		Duration: 4 * time.Second,
		Threads:  8,
		KeyRange: 64,
		Flavor:   "nosync",
	}
	first, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.Passed {
		t.Fatal("setup: nosync did not fail on seed 42")
	}
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.Passed {
		t.Fatalf("seed 42 failed once (%v) but passed on replay", first.Failures)
	}
}

// TestStalledReaderScenario: the robustness flavor must PASS — the tree
// survives a reader parked in its critical section while deletes keep
// needing grace periods — while its positive controls prove the
// machinery actually engaged: stall reports fired, and the parked
// reader saw its domain's oldest grace period age past the stall
// threshold. On the forest the reader parks in shard 0, and the sibling
// shards' grace periods must keep completing.
func TestStalledReaderScenario(t *testing.T) {
	dur := 2 * time.Second
	if testing.Short() {
		dur = 500 * time.Millisecond
	}
	for _, impl := range []string{"citrus", "forest"} {
		t.Run(impl, func(t *testing.T) {
			v, err := Run(Config{
				Seed:     1,
				Duration: dur,
				Threads:  8,
				KeyRange: 64,
				Impl:     impl,
				Flavor:   "stalledreader",
			})
			if err != nil {
				t.Fatal(err)
			}
			if !v.Passed {
				t.Fatalf("stalledreader scenario failed: %v (history: %v)", v.Failures, v.MinimalHistory)
			}
			// Run already enforces these as positive controls; assert them
			// here too so a regression in that enforcement is itself caught.
			if v.StallReports == 0 {
				t.Fatal("no stall reports despite the parked reader")
			}
			age := time.Duration(v.ParkedSyncAgeNanos)
			if age < stallThreshold {
				t.Fatalf("the parked reader saw its oldest grace period at %v, below the %v stall threshold", age, stallThreshold)
			}
			if impl == "forest" && v.SiblingSyncs == 0 {
				t.Fatal("no sibling-shard grace periods completed while shard 0's reader was parked")
			}
			t.Logf("stalledreader: %d stall reports, parked reader's age sample %v, median grace period %v, sibling syncs %d",
				v.StallReports, age, v.SyncWait.Percentile(50), v.SiblingSyncs)
		})
	}
}

// TestRegistryImplSmoke: the runner handles non-Citrus registry
// subjects (no oracle, still churn + invariants + linearizability).
func TestRegistryImplSmoke(t *testing.T) {
	v, err := Run(Config{
		Seed:     7,
		Duration: 150 * time.Millisecond,
		Threads:  4,
		KeyRange: 32,
		Impl:     "Skiplist",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Passed {
		t.Fatalf("skiplist failed torture smoke: %v", v.Failures)
	}
	if v.ReclaimChecks != 0 {
		t.Fatal("a non-Citrus subject reported oracle checks")
	}
}

// TestConfigValidation: bad knobs are config errors, not verdicts.
func TestConfigValidation(t *testing.T) {
	cases := []Config{
		{Impl: "NoSuchTree"},
		{Flavor: "bogus"},
		{Impl: "Skiplist", Flavor: "classic"}, // knobs on a non-citrus subject
		{Impl: "forest", Flavor: "scanhog"},   // the hog cannot hold a forest's read side
	}
	for _, cfg := range cases {
		cfg.Duration = 50 * time.Millisecond
		if _, err := Run(cfg); err == nil {
			t.Errorf("Run(%+v) accepted an invalid config", cfg)
		}
	}
}
