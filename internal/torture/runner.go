package torture

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	citrus "github.com/go-citrus/citrus"
	"github.com/go-citrus/citrus/citrusstat"
	"github.com/go-citrus/citrus/internal/core"
	"github.com/go-citrus/citrus/internal/dict"
	"github.com/go-citrus/citrus/internal/impls"
	"github.com/go-citrus/citrus/internal/linearizability"
	"github.com/go-citrus/citrus/internal/schedpoint"
	"github.com/go-citrus/citrus/internal/workload"
	"github.com/go-citrus/citrus/rcu"
)

// Config selects what to torture and how hard. The zero value is not
// runnable; Run fills defaults for Duration/Threads/KeyRange but the
// subject fields mean: Impl "" or "citrus" is the Citrus tree under the
// flavor knob, "forest" the sharded Citrus forest under the flavor and
// shards knobs, any other value must match a registry name from
// internal/impls (case-insensitive), for which the knobs must be left
// at their zero values.
type Config struct {
	Seed     uint64        // master seed: injection policy + workloads derive from it
	Duration time.Duration // total time box (default 2s)
	Threads  int           // churn workers (default 8)
	KeyRange int           // churn key range (default 64; small = conflict-heavy)

	Impl   string // "", "citrus", "forest", or an impls registry name
	Flavor string // "", "scalable", "classic", "ebr", "nosync", "snapearly", "ebrearly", "stalledreader", "scanstorm", "scanhog" — citrus/forest only (scanhog: citrus only)
	Shards int    // forest shard count (default 4; forest only)

	MaxSleep time.Duration // cap on injected sleeps (0 = schedpoint default)
}

// Verdict is a run's machine-readable outcome, designed to be emitted
// as JSON by cmd/citrustorture and archived by CI. Reproduce a failure
// by re-running with the same Config — Seed drives every injection
// decision and every workload draw.
type Verdict struct {
	Seed   uint64 `json:"seed"`
	Impl   string `json:"impl"`
	Flavor string `json:"flavor,omitempty"`
	Shards int    `json:"shards,omitempty"`

	Passed         bool     `json:"passed"`
	Failures       []string `json:"failures,omitempty"`
	MinimalHistory []string `json:"minimal_history,omitempty"`

	Rounds            int   `json:"rounds"`
	Ops               int64 `json:"ops"`
	PermanentReads    int64 `json:"permanent_reads"`
	FalseNegatives    int64 `json:"false_negatives"`
	ValueCorruptions  int64 `json:"value_corruptions"`
	ReclaimChecks     int64 `json:"reclaim_checks"`
	ReclaimViolations int64 `json:"reclaim_violations"`
	PoisonTrips       int64 `json:"poison_trips"`

	// Scan-reader accounting: range scans completed by the round's
	// dedicated scanner workers and the pairs they emitted. Scan-side
	// violations (a missed permanent key, an out-of-order or out-of-bounds
	// emission, a phantom key, a wrong value) are Failures, not counters.
	ScanOps   int64 `json:"scan_ops,omitempty"`
	ScanPairs int64 `json:"scan_pairs,omitempty"`

	// Grace-period age, what a dwelling reader costs when the GC
	// reclaims. SyncWait is the run's grace-period wait histogram: every
	// subject flavor's Stats().SyncWait, merged across rounds and shards;
	// the scan scenarios are judged by its median. StallReports counts
	// the stall reports the domain fired (stalledreader, scanhog).
	// ParkedSyncAgeNanos (stalledreader) is the oldest in-flight grace
	// period the parked reader saw on its domain just before leaving a
	// park, the maximum over parks. The stalledreader positive control
	// needs stall reports and that age at or past the stall threshold.
	SyncWait           citrusstat.Snapshot `json:"sync_wait"`
	StallReports       int64               `json:"stall_reports,omitempty"`
	ParkedSyncAgeNanos int64               `json:"parked_sync_age_ns,omitempty"`

	// SiblingSyncs (forest + stalledreader): grace periods completed by
	// the NON-stalled shards' domains while shard 0's reader was being
	// parked — the shard-isolation positive control. Zero means the
	// stall leaked across shards (or nothing ran), and the run fails.
	SiblingSyncs int64             `json:"sibling_syncs,omitempty"`
	PointHits    map[string]uint64 `json:"point_hits"`
	ElapsedMS    int64             `json:"elapsed_ms"`
}

func (v *Verdict) fail(format string, args ...any) {
	v.Failures = append(v.Failures, fmt.Sprintf(format, args...))
}

// subject is one torture target: a handle factory plus the quiescent
// hooks the round checks need. The citrus and forest subjects carry
// their oracles in the audit; registry subjects leave it empty and
// offer only the generic dict surface.
type subject struct {
	newHandle func() dict.Handle[int, int]
	keys      func() []int
	check     func() error
	audit
}

// buildSubject constructs a fresh torture target for cfg. Each round
// and each linearizability burst gets its own, so a corrupted structure
// from one round cannot mask or fabricate failures in the next.
func buildSubject(cfg Config) (*subject, error) {
	name := cfg.Impl
	forest := strings.EqualFold(name, "forest")
	if cfg.Shards != 0 && !forest {
		return nil, fmt.Errorf("shards apply only to the forest subject, not %q", name)
	}
	if name == "" || strings.EqualFold(name, "citrus") || forest {
		return buildAudited(cfg, forest)
	}
	if cfg.Flavor != "" {
		return nil, fmt.Errorf("flavor applies only to the citrus and forest subjects, not %q", name)
	}
	for _, f := range impls.All[int, int]() {
		if strings.EqualFold(f.Name, name) {
			m := f.New()
			return &subject{newHandle: m.NewHandle, keys: m.Keys, check: m.CheckInvariants}, nil
		}
	}
	return nil, fmt.Errorf("unknown implementation %q", name)
}

// Stalled-reader scenario knobs: the parker holds a read-side critical
// section for stallPark with stallGap between parks; the domain's stall
// threshold is low enough that every park of a busy round trips it.
// stallThreshold is also the scan scenarios' bound on the median grace
// period.
const (
	stallThreshold = 5 * time.Millisecond
	stallPark      = 40 * time.Millisecond
	stallGap       = 10 * time.Millisecond
)

// Scan scenario knobs. scanstorm is the disciplined configuration: half
// the churn workers become scanners whose traversals are BATCHED —
// every scanBatch emissions the read-side critical section is dropped
// and the scan re-descends by key — so grace periods keep completing,
// and the run fails if its median grace period reaches stallThreshold.
// scanhog is its negative control: the same scan-heavy duty cycle but
// each scan is one UNBATCHED full-range traversal with a slow consumer
// (hogDwell per emission) holding the critical section throughout, so
// the median grace period waits out a scan and the same rule fails the
// run. A harness that passes scanhog could not have detected a scan
// workload starving updaters of grace periods.
const (
	scanBatch = 8                      // scanstorm: emissions per read-side critical section
	hogDwell  = 500 * time.Microsecond // scanhog: consumer dwell per emission, inside the CS
)

// flavors builds, per -flavor name, the RCU flavor a shard's oracle
// shadows. The forest subject builds one per shard, so the negative
// controls (nosync, snapearly, ebrearly) break every shard — routing
// must not launder a broken grace period into a pass.
var flavors = map[string]func() rcu.Flavor{
	"":         newDomain,
	"scalable": newDomain,
	"classic":  func() rcu.Flavor { return rcu.NewClassicDomain() },
	"nosync":   func() rcu.Flavor { return rcu.NoSync(rcu.NewDomain()) },
	// Negative control for grace-period combining: sequence targets are
	// computed one stride early, so Synchronize can return before
	// pre-existing readers finish. The oracles must catch it.
	"snapearly": func() rcu.Flavor {
		d := rcu.NewDomain()
		d.SetSnapEarlyMutant(true)
		return d
	},
	// Epoch-based reclamation: readers pin the global epoch instead of
	// publishing per-section counters, and Synchronize advances the
	// epoch twice. Same oracle, same churn — the flavor seam is the only
	// thing that changes.
	"ebr": func() rcu.Flavor { return rcu.NewEpochDomain() },
	// Negative control for the epoch flavor: the advance threshold is
	// computed one epoch early, so pre-existing pinned readers are never
	// waited for and Synchronize returns immediately over live critical
	// sections. The reclamation oracle must catch the premature
	// reclamations this allows.
	"ebrearly": func() rcu.Flavor {
		d := rcu.NewEpochDomain()
		d.SetAdvanceEarlyMutant(true)
		return d
	},
	// Robustness scenario: a dedicated reader goroutine parks inside its
	// critical section on shard 0, stalling every grace period it
	// predates. The stall detector must trip and the parked reader must
	// see grace periods age past the stall threshold (positive controls
	// in Run), and the tree must come through the abuse uncorrupted.
	"stalledreader": newDomain,
	// Scan-heavy robustness scenario: batched scans against churn. Run
	// fails the verdict if the median grace period, over every shard,
	// reaches the stall threshold — batching must keep grace periods
	// short.
	"scanstorm": newDomain,
	// Negative control for scan discipline: unbatched full-range scans
	// with a slow consumer hold the read side while churn needs grace
	// periods. The long median grace period (and the stall reports) MUST
	// surface as a failure.
	"scanhog": newDomain,
}

func newDomain() rcu.Flavor { return rcu.NewDomain() }

// buildAudited builds the citrus subject, a core tree, or the forest
// subject, the citrus.Forest kvserver serves, on oracle-shadowed
// flavors: one oracle per shard (the citrus subject is one shard), each
// with its own reclaimer, so a reclamation that one shard's epochs
// can't justify surfaces in that shard's oracle alone, and a
// cross-shard misroute surfaces in the forest's own CheckInvariants or
// as a false negative.
//
// Under stalledreader and scanhog only shard 0 gets stall detection,
// and under stalledreader the parked reader: for the forest the
// scenario's claim is isolation, and the positive control demands both
// that shard 0 reports stalls and ages its grace periods AND that the
// sibling shards' grace periods kept completing while it was parked
// (Verdict.SiblingSyncs > 0).
func buildAudited(cfg Config, forest bool) (*subject, error) {
	newInner, ok := flavors[cfg.Flavor]
	if !ok {
		return nil, fmt.Errorf("unknown flavor %q (scalable, classic, ebr, nosync, snapearly, ebrearly, stalledreader, scanstorm, scanhog)", cfg.Flavor)
	}
	if forest && cfg.Flavor == "scanhog" {
		return nil, fmt.Errorf("scanhog applies only to the citrus subject: the forest's scans collect per shard and emit outside the critical sections, so a slow consumer cannot hog the read side")
	}
	s := &subject{}
	newFlavor := func() rcu.Flavor {
		o := NewOracle(newInner())
		s.oracles = append(s.oracles, o)
		return o
	}
	if forest {
		shards := cfg.Shards
		if shards <= 0 {
			shards = 4
		}
		m := impls.ForestMap(citrus.NewForest[int, int](shards, citrus.WithShardFlavor[int](newFlavor)), "forest")
		s.newHandle, s.keys, s.check = m.NewHandle, m.Keys, m.CheckInvariants
	} else {
		tr := core.NewTree[int, int](newFlavor())
		s.newHandle = func() dict.Handle[int, int] { return coreTortureHandle{tr.NewHandle()} }
		s.keys, s.check = tr.Keys, tr.CheckInvariants
	}
	s.sibBase = s.siblingSyncs()
	if cfg.Flavor == "stalledreader" || cfg.Flavor == "scanhog" {
		sc := s.oracles[0].inner.(rcu.StallControl)
		sc.SetStallTimeout(stallThreshold)
		sc.SetStallHandler(func(rcu.StallReport) { s.stallReports.Add(1) })
	}
	if cfg.Flavor == "stalledreader" {
		s.stopParker = startParker(s.oracles[0], &s.parkedAge)
	}
	return s, nil
}

// An audit is what the citrus and forest subjects share: an oracle per
// shard, and the stall scenarios' counters. Its zero value audits
// nothing.
type audit struct {
	oracles      []*Oracle
	stallReports atomic.Int64
	parkedAge    atomic.Int64 // the parked reader's largest age sample
	sibBase      int64        // siblingSyncs when the subject was built
	stopParker   func()
}

// barrier waits until every reclamation deferred so far, on every
// shard, has been checked and poisoned.
func (a *audit) barrier() {
	for _, o := range a.oracles {
		o.Barrier()
	}
}

// siblingSyncs counts the grace periods completed on every shard but
// shard 0: the forest stalledreader's isolation evidence.
func (a *audit) siblingSyncs() int64 {
	var n int64
	for i, o := range a.oracles {
		if src, ok := o.inner.(rcu.StatsSource); ok && i > 0 {
			n += src.Stats().Synchronizes
		}
	}
	return n
}

// fold accumulates the oracles' and the shard flavors' accounting.
func (a *audit) fold(v *Verdict) {
	for _, o := range a.oracles {
		v.ReclaimChecks += o.Checks()
		v.ReclaimViolations += o.Violations()
		v.PoisonTrips += o.PoisonTrips()
		if src, ok := o.inner.(rcu.StatsSource); ok {
			v.SyncWait.Merge(src.Stats().SyncWait)
		}
	}
	v.StallReports += a.stallReports.Load()
	v.ParkedSyncAgeNanos = max(v.ParkedSyncAgeNanos, a.parkedAge.Load())
	v.SiblingSyncs += a.siblingSyncs() - a.sibBase
}

// violation returns the first failing oracle's report, naming its shard
// when there is more than one.
func (a *audit) violation() (int64, error) {
	for i, o := range a.oracles {
		if n, err := o.Report(); n != 0 {
			if len(a.oracles) > 1 {
				err = fmt.Errorf("shard %d: %w", i, err)
			}
			return n, err
		}
	}
	return 0, nil
}

// close stops the parked reader and the oracles' reclaimers.
func (a *audit) close() {
	if a.stopParker != nil {
		a.stopParker()
	}
	for _, o := range a.oracles {
		o.Close()
	}
}

// startParker parks a reader, registered through o, inside its
// read-side critical section for stallPark at a time with stallGap
// between parks, until the returned stop is called. Registering through
// the oracle puts its critical sections in the epoch accounting and
// makes its handle id the one stall reports name. Just before each
// ReadUnlock it reads the shadowed domain's oldest in-flight grace
// period and keeps the largest in age: the evidence that the park held
// grace periods up.
func startParker(o *Oracle, age *atomic.Int64) (stop func()) {
	src := o.inner.(rcu.StatsSource)
	quit := make(chan struct{})
	done := make(chan struct{})
	pr := o.Register()
	go func() {
		defer close(done)
		defer pr.Unregister()
		for {
			pr.ReadLock()
			select {
			case <-quit:
				pr.ReadUnlock()
				return
			case <-time.After(stallPark):
			}
			if a := src.Stats().OldestSyncAgeNanos; a > age.Load() {
				age.Store(a)
			}
			pr.ReadUnlock()
			select {
			case <-quit:
				return
			case <-time.After(stallGap):
			}
		}
	}()
	return func() { close(quit); <-done }
}

// coreTortureHandle lifts a core handle to dict.Handle with the weakly
// consistent Snapshot downgrade (the same lift internal/impls applies).
type coreTortureHandle struct{ *core.Handle[int, int] }

func (h coreTortureHandle) Snapshot() dict.Snapshot[int, int] {
	return dict.NewWeakSnapshot[int, int](h.Handle)
}

// batchedScanner is the optional bounded-dwell scan face a subject
// handle may expose. The core handle has it (coreTortureHandle inherits
// it by embedding); the forest's collect-per-shard scans already run in
// bounded critical sections and fall back to plain RangeScan.
type batchedScanner interface {
	RangeScanBatched(lo, hi, batch int, fn func(key, value int) bool)
}

// splitmix64 is the standard seed expander (Steele et al.), used to
// derive independent per-round and per-worker streams from the master
// seed — the same derivation schedpoint uses for injection decisions.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Run executes one torture run and returns its verdict. The only error
// return is a config error; a subject failing its oracles is a Passed:
// false verdict, not an error.
//
// A run is a sequence of rounds against fresh subjects, each round
// three movements: (1) churn — Threads workers hammer a small key
// range under the seeded injection policy, with keys ≡ 0 (mod 4)
// permanent so any Contains miss on them is a caught false negative
// (the Figure 4 failure mode) and any wrong value a caught corruption;
// a quarter of the workers (half under the scan scenarios) are scan
// readers whose range scans are checked in flight for the weak
// consistency contract — strict ascent, bounds, no phantoms, every
// permanent key in bounds present — and whose traversals feed the same
// poison tripwire point reads use, so a reclaimed node visited mid-scan
// is caught; (2) quiesce — retirements are flushed, the reclamation
// oracle's verdict is read, structural invariants are checked, and
// quiescent iteration is cross-checked against point queries; (3) a
// small recorded history (point ops plus scans) is checked for
// linearizability with the scan ops judged by the weak-consistency scan
// spec, and a failing history is shrunk to a locally minimal core
// before it is reported.
func Run(cfg Config) (*Verdict, error) {
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 8
	}
	if cfg.KeyRange < 8 {
		cfg.KeyRange = 64
	}
	// Validate impl/flavor before spending the time box — and close the
	// probe subject, which owns reclaimer goroutines (and, for the
	// forest, one per shard).
	if s, err := buildSubject(cfg); err != nil {
		return nil, err
	} else {
		s.close()
	}

	pol := schedpoint.NewPolicy(cfg.Seed)
	if cfg.MaxSleep > 0 {
		pol.SetMaxSleep(cfg.MaxSleep)
	}
	schedpoint.Enable(pol)
	defer schedpoint.Disable()

	v := &Verdict{Seed: cfg.Seed, Impl: cfg.Impl, Flavor: cfg.Flavor}
	if v.Impl == "" {
		v.Impl = "citrus"
	}
	if strings.EqualFold(v.Impl, "forest") {
		v.Shards = cfg.Shards
		if v.Shards <= 0 {
			v.Shards = 4
		}
	}
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for round := 0; time.Now().Before(deadline) && len(v.Failures) == 0; round++ {
		slice := 150 * time.Millisecond
		if rem := time.Until(deadline); rem < slice {
			slice = rem
		}
		roundSeed := splitmix64(cfg.Seed ^ uint64(round)<<32)
		runRound(cfg, v, roundSeed, slice)
		v.Rounds++
	}
	if cfg.Flavor == "stalledreader" && len(v.Failures) == 0 {
		// Positive control: the whole point of the scenario is to trip
		// the robustness machinery. A run that survives without a single
		// stall report, or whose parked reader never saw a grace period
		// as old as the stall threshold, means the detector or the age
		// gauge is broken (or the parker never parked), so the run must
		// fail rather than quietly prove nothing.
		if v.StallReports == 0 {
			v.fail("positive control: the parked reader never tripped the stall detector (0 stall reports)")
		}
		if age := time.Duration(v.ParkedSyncAgeNanos); age < stallThreshold {
			v.fail("positive control: the parked reader saw its domain's oldest grace period at %v, below the %v stall threshold", age, stallThreshold)
		}
		if strings.EqualFold(v.Impl, "forest") && v.SiblingSyncs == 0 {
			v.fail("positive control: no sibling-shard grace periods completed while shard 0's reader was parked — the stall leaked across shards")
		}
	}
	if (cfg.Flavor == "scanstorm" || cfg.Flavor == "scanhog") && len(v.Failures) == 0 {
		// Both scan scenarios are judged by the same rule: scans must not
		// hold the typical grace period past the stall threshold. The
		// median, not the slowest, is judged because the tail moves with
		// host load and the median does not. scanstorm's batching
		// satisfies it; scanhog's unbatched hogging violates it by
		// design, so this is where the negative control's required
		// failure comes from.
		if v.ScanOps == 0 {
			v.fail("positive control: the %s scenario completed no scans", cfg.Flavor)
		}
		if med := v.SyncWait.Percentile(50); med >= stallThreshold {
			v.fail("scan grace-period rule: the median grace period took %v, at or past the %v stall threshold — scan-side critical sections held updaters' grace periods (%d grace period(s), %d stall report(s))",
				med, stallThreshold, v.SyncWait.Total(), v.StallReports)
		}
	}
	v.PointHits = pol.Hits()
	v.ElapsedMS = time.Since(start).Milliseconds()
	v.Passed = len(v.Failures) == 0
	return v, nil
}

// runRound runs one churn+quiesce+history round against a fresh
// subject. Failures are appended to v; the caller stops on the first.
func runRound(cfg Config, v *Verdict, roundSeed uint64, slice time.Duration) {
	s, err := buildSubject(cfg)
	if err != nil {
		v.fail("subject: %v", err)
		return
	}
	defer s.close()

	// Permanent keys (≡ 0 mod 4) are inserted up front and never
	// deleted; every draw of one is a membership probe.
	{
		h := s.newHandle()
		for k := 0; k < cfg.KeyRange; k += 4 {
			h.Insert(k, k)
		}
		h.Close()
	}

	var (
		stop        atomic.Bool
		ops         atomic.Int64
		permReads   atomic.Int64
		falseNegs   atomic.Int64
		corruptions atomic.Int64
		wg          sync.WaitGroup

		// Scan-reader verdicts, checked structurally inside every scan:
		// a permanent key (≡ 0 mod 4) inside the bounds that the scan
		// failed to emit, an emission that broke strict ascent, landed
		// outside the requested bounds, named a key nobody could have
		// inserted, or carried a value never stored under its key.
		scanOps      atomic.Int64
		scanPairs    atomic.Int64
		scanMissing  atomic.Int64
		scanUnsorted atomic.Int64
		scanBounds   atomic.Int64
		scanPhantom  atomic.Int64
		scanBadValue atomic.Int64
	)

	// Scan readers join the churn: a quarter of the workers by default,
	// half under the scan scenarios. Registry subjects and every citrus
	// flavor get them — a poisoned node visited mid-scan lands in the
	// same PoisonTrips tripwire the point operations use.
	scanners := cfg.Threads / 4
	if cfg.Flavor == "scanstorm" || cfg.Flavor == "scanhog" {
		scanners = cfg.Threads / 2
		if scanners < 1 {
			scanners = 1
		}
	}

	mix := workload.Mix{ContainsPct: 20, InsertPct: 40, DeletePct: 40}
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		if w < scanners {
			go func(seed uint64) {
				defer wg.Done()
				h := s.newHandle()
				defer h.Close()
				rng := workload.NewRNG(seed)
				n, pairs := int64(0), int64(0)
				for !stop.Load() {
					lo := rng.Intn(cfg.KeyRange)
					hi := lo + 1 + rng.Intn(cfg.KeyRange-lo)
					if cfg.Flavor == "scanhog" {
						lo, hi = 0, cfg.KeyRange // one long unbatched traversal
					}
					prev := lo - 1
					seen := make(map[int]bool, hi-lo)
					emit := func(k, val int) bool {
						pairs++
						if k < lo || k >= hi {
							scanBounds.Add(1)
						}
						if k <= prev {
							scanUnsorted.Add(1)
						}
						prev = k
						if k < 0 || k >= cfg.KeyRange {
							scanPhantom.Add(1)
						} else if val != k {
							scanBadValue.Add(1)
						}
						seen[k] = true
						if cfg.Flavor == "scanhog" {
							time.Sleep(hogDwell) // slow consumer inside the CS
						}
						return true
					}
					switch {
					case cfg.Flavor == "scanhog":
						h.RangeScan(lo, hi, emit)
					case cfg.Flavor == "scanstorm":
						if bs, ok := h.(batchedScanner); ok {
							bs.RangeScanBatched(lo, hi, scanBatch, emit)
						} else {
							// The forest collects per shard in bounded
							// critical sections; the window is the batch.
							h.RangeScan(lo, hi, emit)
						}
					case rng.Intn(8) == 0:
						// Exercise the Snapshot face too: weakly
						// consistent views promise the same contract.
						snap := h.Snapshot()
						snap.Range(lo, hi, emit)
						snap.Close()
					default:
						h.RangeScan(lo, hi, emit)
					}
					for k := (lo + 3) / 4 * 4; k < hi; k += 4 {
						if k >= 0 && !seen[k] {
							scanMissing.Add(1)
						}
					}
					n++
				}
				scanOps.Add(n)
				scanPairs.Add(pairs)
				ops.Add(n)
			}(splitmix64(roundSeed ^ uint64(w)))
			continue
		}
		go func(seed uint64) {
			defer wg.Done()
			h := s.newHandle()
			defer h.Close()
			rng := workload.NewRNG(seed)
			n := int64(0)
			for !stop.Load() {
				k := rng.Intn(cfg.KeyRange)
				if k%4 == 0 {
					permReads.Add(1)
					v, ok := h.Contains(k)
					if !ok {
						falseNegs.Add(1)
					} else if v != k {
						corruptions.Add(1)
					}
				} else {
					switch rng.NextOp(mix) {
					case workload.OpContains:
						if v, ok := h.Contains(k); ok && v != k {
							corruptions.Add(1)
						}
					case workload.OpInsert:
						h.Insert(k, k)
					default:
						h.Delete(k)
					}
				}
				n++
			}
			ops.Add(n)
		}(splitmix64(roundSeed ^ uint64(w)))
	}
	time.Sleep(slice)
	stop.Store(true)
	wg.Wait()
	v.Ops += ops.Load()
	v.PermanentReads += permReads.Load()
	v.FalseNegatives += falseNegs.Load()
	v.ValueCorruptions += corruptions.Load()
	v.ScanOps += scanOps.Load()
	v.ScanPairs += scanPairs.Load()
	if n := scanMissing.Load(); n != 0 {
		v.fail("%d scan(s) missed a permanently present key inside their bounds (the weak-consistency must-appear clause failed)", n)
	}
	if n := scanUnsorted.Load(); n != 0 {
		v.fail("%d scan emission(s) out of order or duplicated", n)
	}
	if n := scanBounds.Load(); n != 0 {
		v.fail("%d scan emission(s) outside the requested bounds", n)
	}
	if n := scanPhantom.Load(); n != 0 {
		v.fail("%d scan emission(s) of keys outside the key range — phantom reads", n)
	}
	if n := scanBadValue.Load(); n != 0 {
		v.fail("%d scan emission(s) carried a value never stored under their key", n)
	}

	// Quiesce: flush retirements so the oracle has seen every
	// reclamation this round caused, then read the verdicts.
	s.barrier()
	if fn := falseNegs.Load(); fn != 0 {
		v.fail("%d false negative(s) on permanently present keys in %d probes (the line 74 guarantee failed)", fn, permReads.Load())
	}
	if c := corruptions.Load(); c != 0 {
		v.fail("%d value corruption(s): Contains returned a value that was never stored under that key", c)
	}
	if n, first := s.violation(); n != 0 {
		v.fail("reclamation oracle: %d violation(s); first: %v", n, first)
	}
	if err := s.check(); err != nil {
		v.fail("structural invariants: %v", err)
	}
	if len(v.Failures) == 0 {
		h := s.newHandle()
		inKeys := map[int]bool{}
		for _, k := range s.keys() {
			inKeys[k] = true
		}
		for k := 0; k < cfg.KeyRange; k++ {
			if _, ok := h.Contains(k); ok != inKeys[k] {
				v.fail("membership mismatch on key %d: Contains=%v, quiescent iteration=%v", k, ok, inKeys[k])
				break
			}
		}
		h.Close()
	}
	s.fold(v)
	if len(v.Failures) != 0 {
		return
	}
	runHistory(cfg, v, splitmix64(roundSeed^0xD1CEB0C5))
}

// runHistory records one small, highly concurrent history against a
// fresh subject and checks it for linearizability; a failing history is
// shrunk to a locally minimal core for the verdict.
func runHistory(cfg Config, v *Verdict, seed uint64) {
	s, err := buildSubject(cfg)
	if err != nil {
		v.fail("history subject: %v", err)
		return
	}
	defer s.close()

	procs := cfg.Threads
	if procs > 4 {
		procs = 4 // keep the history inside the exhaustive checker's reach
	}
	rec := linearizability.NewRecorder()
	handles := make([]*linearizability.RecordingHandle, procs)
	for p := 0; p < procs; p++ {
		handles[p] = rec.Wrap(s.newHandle(), p)
	}
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := handles[p]
			rng := workload.NewRNG(splitmix64(seed ^ uint64(p)))
			for i := 0; i < 8; i++ {
				k := rng.Intn(3)
				switch rng.Intn(4) {
				case 0:
					h.Insert(k, p*100+i) // distinct values expose stale reads
				case 1:
					h.Delete(k)
				case 2:
					h.Contains(k)
				default:
					// Recorded scans are checked against the weak
					// consistency spec (linearizability.CheckScans) while
					// the point ops around them stay in the Wing & Gong
					// search.
					h.RangeScan(0, 3, func(int, int) bool { return true })
				}
			}
		}(p)
	}
	wg.Wait()
	var ops []linearizability.Op
	for _, h := range handles {
		ops = append(ops, h.Ops()...)
		h.Close()
	}
	if err := linearizability.Check(ops, 0); err != nil {
		minimal := linearizability.Shrink(ops, 0)
		v.fail("linearizability: %v (minimal core: %d ops)", err, len(minimal))
		for _, op := range minimal {
			v.MinimalHistory = append(v.MinimalHistory, op.String())
		}
	}
}
