package torture

import (
	"fmt"
	"slices"
	"sync/atomic"

	"github.com/go-citrus/citrus/internal/core"
	"github.com/go-citrus/citrus/internal/dict"
	"github.com/go-citrus/citrus/internal/partition"
	"github.com/go-citrus/citrus/rcu"
)

// The forest subject tortures the sharded configuration: KeyRange keys
// hash-routed (the same seeded router citrus.Forest uses) across Shards
// independent trees, each with its own flavor wrapped in its own
// reclamation oracle and its own reclaimer. Every oracle verdict is
// per shard, so a cross-shard misroute (a key written to one shard and
// read from another) surfaces as a false negative and a reclamation
// that one shard's epochs can't justify surfaces in that shard's
// oracle alone.
//
// Under -flavor stalledreader only shard 0 gets the parked reader and
// the stall plumbing: the scenario's claim is isolation, and the
// positive control demands both that shard 0 reports stalls and ages
// its grace periods AND that the sibling shards' grace periods kept
// completing while it was parked (Verdict.SiblingSyncs > 0). The
// negative controls (nosync, snapearly, ebrearly) apply to every shard
// — routing must not launder a broken grace period into a pass.
type forestSubject struct {
	router  partition.Router[int]
	trees   []*core.Tree[int, int]
	oracles []*Oracle
	recs    []*rcu.Reclaimer
}

func buildForestSubject(cfg Config) (*subject, error) {
	shards := cfg.Shards
	if shards <= 0 {
		shards = 4
	}
	var stalldom *rcu.Domain
	newInner := func(shard int) (rcu.Flavor, error) {
		switch cfg.Flavor {
		case "", "scalable":
			return rcu.NewDomain(), nil
		case "classic":
			return rcu.NewClassicDomain(), nil
		case "nosync":
			return rcu.NoSync(rcu.NewDomain()), nil
		case "snapearly":
			sd := rcu.NewDomain()
			sd.SetSnapEarlyMutant(true)
			return sd, nil
		case "ebr":
			return rcu.NewEpochDomain(), nil
		case "ebrearly":
			ed := rcu.NewEpochDomain()
			ed.SetAdvanceEarlyMutant(true)
			return ed, nil
		case "stalledreader":
			d := rcu.NewDomain()
			if shard == 0 {
				d.SetSiteCapture(true)
				d.SetStallTimeout(stallThreshold)
				stalldom = d
			}
			return d, nil
		case "scanstorm":
			// Scan-heavy scenario: the run fails if the median grace
			// period, over every shard, reaches the stall threshold.
			return rcu.NewDomain(), nil
		case "scanhog":
			return nil, fmt.Errorf("scanhog applies only to the citrus subject: the forest's scans collect per shard and emit outside the critical sections, so a slow consumer cannot hog the read side")
		default:
			return nil, fmt.Errorf("unknown flavor %q (scalable, classic, ebr, nosync, snapearly, ebrearly, stalledreader, scanstorm)", cfg.Flavor)
		}
	}

	fs := &forestSubject{
		router:  partition.NewRouter[int](partition.SharedSeed(), shards),
		trees:   make([]*core.Tree[int, int], shards),
		oracles: make([]*Oracle, shards),
		recs:    make([]*rcu.Reclaimer, shards),
	}
	inners := make([]rcu.Flavor, shards)
	var stallReports, parkedAge atomic.Int64
	for i := 0; i < shards; i++ {
		inner, err := newInner(i)
		if err != nil {
			return nil, err
		}
		inners[i] = inner
		o := NewOracle(inner)
		rec := rcu.NewReclaimer(o)
		tr := core.NewTree[int, int](o)
		tr.EnableTorture(rec, o, true)
		fs.trees[i], fs.oracles[i], fs.recs[i] = tr, o, rec
	}

	// Sibling grace-period baseline: Synchronizes on every domain except
	// shard 0, read again at fold time. Only meaningful for
	// stalledreader, but cheap enough to keep unconditionally.
	sibSyncs := func() int64 {
		var n int64
		for i := 1; i < shards; i++ {
			if src, ok := inners[i].(rcu.StatsSource); ok {
				n += src.Stats().Synchronizes
			}
		}
		return n
	}
	sibBase := sibSyncs()

	stopParker := func() {}
	if stalldom != nil {
		// Park inside shard 0's read side, through shard 0's oracle.
		stalldom.SetStallHandler(func(rcu.StallReport) { stallReports.Add(1) })
		stopParker = startParker(fs.oracles[0], stalldom, &parkedAge)
	}

	return &subject{
		newHandle: func() dict.Handle[int, int] {
			h := &forestTortureHandle{fs: fs, hs: make([]*core.Handle[int, int], shards)}
			for i := range fs.trees {
				h.hs[i] = fs.trees[i].NewHandle()
			}
			return h
		},
		keys: func() []int {
			var ks []int
			for _, tr := range fs.trees {
				ks = append(ks, tr.Keys()...)
			}
			slices.Sort(ks)
			return ks
		},
		check: func() error {
			for i, tr := range fs.trees {
				if err := tr.CheckInvariants(); err != nil {
					return fmt.Errorf("shard %d: %w", i, err)
				}
				var misrouted error
				tr.Range(func(k, _ int) bool {
					if want := fs.router.Partition(k); want != i {
						misrouted = fmt.Errorf("key %d found in shard %d, routes to %d", k, i, want)
						return false
					}
					return true
				})
				if misrouted != nil {
					return misrouted
				}
			}
			return nil
		},
		barrier: func() {
			for _, rec := range fs.recs {
				rec.Barrier()
			}
		},
		fold: func(v *Verdict) {
			for i := range fs.trees {
				v.ReclaimChecks += fs.oracles[i].Checks()
				v.ReclaimViolations += fs.oracles[i].Violations()
				v.PoisonTrips += fs.trees[i].PoisonTrips()
				if src, ok := inners[i].(rcu.StatsSource); ok {
					v.SyncWait.Merge(src.Stats().SyncWait)
				}
			}
			v.StallReports += stallReports.Load()
			v.ParkedSyncAgeNanos = max(v.ParkedSyncAgeNanos, parkedAge.Load())
			v.SiblingSyncs += sibSyncs() - sibBase
		},
		violation: func() (int64, error) {
			for i := range fs.trees {
				if n, first := fs.trees[i].TortureReport(); n != 0 {
					return n, fmt.Errorf("shard %d: %w", i, first)
				}
				if fs.oracles[i].Violations() != 0 {
					return fs.oracles[i].Violations(), fmt.Errorf("shard %d: %w", i, fs.oracles[i].FirstViolation())
				}
				if trips := fs.trees[i].PoisonTrips(); trips != 0 {
					return trips, fmt.Errorf("shard %d: a search walked a reclaimed (poisoned) node %d time(s)", i, trips)
				}
			}
			return 0, nil
		},
		close: func() {
			stopParker()
			for _, rec := range fs.recs {
				rec.Close()
			}
		},
	}, nil
}

// forestTortureHandle mirrors citrus.ForestHandle: one core handle per
// shard, operations routed by the shared-seed hash.
type forestTortureHandle struct {
	fs *forestSubject
	hs []*core.Handle[int, int]
}

func (h *forestTortureHandle) Contains(key int) (int, bool) {
	return h.hs[h.fs.router.Partition(key)].Contains(key)
}

func (h *forestTortureHandle) Insert(key, value int) bool {
	return h.hs[h.fs.router.Partition(key)].Insert(key, value)
}

func (h *forestTortureHandle) Delete(key int) bool {
	return h.hs[h.fs.router.Partition(key)].Delete(key)
}

// RangeScan scans every shard for in-range pairs (each inside its own
// read-side critical section) and emits the sorted union in ascending
// key order — the same collect-and-merge shape as citrus.ForestHandle.
func (h *forestTortureHandle) RangeScan(lo, hi int, fn func(key int, value int) bool) {
	type pair struct{ k, v int }
	var pairs []pair
	for _, sh := range h.hs {
		sh.RangeScan(lo, hi, func(k, v int) bool {
			pairs = append(pairs, pair{k, v})
			return true
		})
	}
	slices.SortFunc(pairs, func(a, b pair) int { return a.k - b.k })
	for _, p := range pairs {
		if !fn(p.k, p.v) {
			return
		}
	}
}

// Scan emits every shard's pairs in ascending global key order.
func (h *forestTortureHandle) Scan(fn func(key int, value int) bool) {
	type pair struct{ k, v int }
	var pairs []pair
	for _, sh := range h.hs {
		sh.Scan(func(k, v int) bool {
			pairs = append(pairs, pair{k, v})
			return true
		})
	}
	slices.SortFunc(pairs, func(a, b pair) int { return a.k - b.k })
	for _, p := range pairs {
		if !fn(p.k, p.v) {
			return
		}
	}
}

// Snapshot is the weakly consistent downgrade, like the real forest's.
func (h *forestTortureHandle) Snapshot() dict.Snapshot[int, int] {
	return dict.NewWeakSnapshot[int, int](h)
}

func (h *forestTortureHandle) Close() {
	for _, sh := range h.hs {
		sh.Close()
	}
}
