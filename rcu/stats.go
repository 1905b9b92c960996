package rcu

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/go-citrus/citrus/citrusstat"
)

// Stats is a point-in-time snapshot of a flavor's grace-period activity.
// All counters are cumulative since the domain was created and
// monotonically non-decreasing, so two snapshots can be subtracted for
// interval rates.
//
// In Citrus terms (the paper's §4): Synchronizes counts the line-74
// synchronize_rcu calls — one per delete of a node with two children —
// and SyncWait is the distribution of what each of those waits cost,
// the quantity behind the paper's Figure 8 comparison of RCU flavors.
type Stats struct {
	// Synchronizes is the number of completed Synchronize calls (grace
	// periods driven to completion on this domain).
	Synchronizes int64 `json:"synchronizes"`

	// SyncSpins counts busy-poll iterations before the first yield of a
	// wait (the cheap phase); SyncRechecks counts re-reads after waiting
	// escalated past busy-spinning — each one preceded by a Gosched or a
	// brief sleep. They used to be conflated into one counter, which hid
	// whether synchronizers were burning cycles or parked behind
	// descheduled readers. SyncYields is the number of runtime.Gosched
	// calls, SyncSleeps the number of brief sleeps taken after the yield
	// budget was exhausted too. High sleeps relative to Synchronizes
	// means grace periods are routinely blocked on long-running readers.
	SyncSpins    int64 `json:"sync_spins"`
	SyncRechecks int64 `json:"sync_rechecks"`
	SyncYields   int64 `json:"sync_yields"`
	SyncSleeps   int64 `json:"sync_sleeps"`

	// How each call finished — an exact partition of Synchronizes, so
	// SyncLeads + SyncShares + SyncExpedited == Synchronizes (a snapshot
	// taken while calls are completing may catch one counter ahead of
	// the other). SyncLeads counts calls released by a grace period they
	// ran themselves: every ClassicDomain call, every call with combining
	// off, and a call that followed an in-flight grace period and then
	// led the next. SyncShares counts calls released by a grace period
	// another caller led, after waiting on it. SyncExpedited counts calls
	// whose target had already been reached when they looked, so they
	// neither led nor waited. Leads well below Synchronizes under
	// concurrent updaters is combining working.
	SyncLeads     int64 `json:"sync_leads"`
	SyncShares    int64 `json:"sync_shares"`
	SyncExpedited int64 `json:"sync_expedited"`

	// Stalls counts grace-period stall reports fired (see
	// Domain.SetStallTimeout): a Synchronize call whose wait crossed the
	// stall threshold contributes one per report, with per-call report
	// intervals doubling. ActiveStalls is a gauge — NOT monotonic — of
	// Synchronize calls currently stalled past the threshold; nonzero
	// means some updater is blocked on a slow reader right now.
	Stalls       int64 `json:"stalls"`
	ActiveStalls int64 `json:"active_stalls"`

	// ActiveSyncs is a gauge of Synchronize calls currently in flight on
	// this domain; OldestSyncAgeNanos the age, in nanoseconds, of the
	// oldest of them — 0 when none is running. Together they are the
	// grace-period-age signal of the age-memory trade-off: a healthy
	// domain keeps OldestSyncAgeNanos in the microseconds, while a
	// stalled reader shows as an age that grows without bound (and, past
	// the stall threshold, as ActiveStalls). Scraping it as a time
	// series shows grace-period pressure *before* the stall detector
	// fires.
	ActiveSyncs        int64 `json:"active_syncs"`
	OldestSyncAgeNanos int64 `json:"oldest_sync_age_ns"`

	// Readers is the number of currently registered readers;
	// ReaderHighWater the maximum ever simultaneously registered.
	Readers         int   `json:"readers"`
	ReaderHighWater int64 `json:"reader_high_water"`

	// SyncWait is the wall-clock distribution of Synchronize calls
	// (entry to return, including any queueing a flavor imposes — for
	// ClassicDomain that includes waiting behind other synchronizers,
	// which is exactly the bottleneck the paper measures).
	SyncWait citrusstat.Snapshot `json:"sync_wait"`

	// FollowerWait is the distribution of individual follower episodes
	// under grace-period combining: how long a Synchronize call blocked
	// waiting for a grace period someone else was leading (one sample
	// per episode, so a call that followed two grace periods records
	// two, and FollowerWait.Total() >= SyncShares). Always empty for
	// ClassicDomain.
	FollowerWait citrusstat.Snapshot `json:"follower_wait"`
}

// A StatsSource is a flavor that can report grace-period statistics.
// Domain, ClassicDomain and EpochDomain implement it; consumers
// (e.g. citrus.Tree.Stats) type-assert against it so flavors without
// accounting keep working.
type StatsSource interface {
	Stats() Stats
}

var (
	_ StatsSource = (*Domain)(nil)
	_ StatsSource = (*ClassicDomain)(nil)
	_ StatsSource = (*EpochDomain)(nil)
)

// Merge folds other into s: counters sum, wait histograms merge
// bucket-wise (exactly — every domain shares the log2 lattice, see
// citrusstat.Snapshot.Merge), and the gauges combine by the rule a
// many-domain aggregate wants. ActiveStalls, ActiveSyncs and Readers
// sum ("stalled/in-flight/registered anywhere right now"), which is the
// quantity degradation policies compare against zero; ReaderHighWater
// sums too, keeping the pre-existing forest-fold semantics ("peak
// readers per shard, added up"). OldestSyncAgeNanos takes the maximum:
// the aggregate's oldest in-flight grace period is the oldest across
// the parts, not their sum.
//
// citrus.Forest.Stats folds every shard's domain through Merge; any
// other multi-domain aggregation (e.g. a metrics exporter scraping
// several trees) should use it too, rather than re-deriving the
// per-field rules.
func (s *Stats) Merge(other Stats) {
	s.Synchronizes += other.Synchronizes
	s.SyncSpins += other.SyncSpins
	s.SyncRechecks += other.SyncRechecks
	s.SyncYields += other.SyncYields
	s.SyncSleeps += other.SyncSleeps
	s.SyncLeads += other.SyncLeads
	s.SyncShares += other.SyncShares
	s.SyncExpedited += other.SyncExpedited
	s.Stalls += other.Stalls
	s.ActiveStalls += other.ActiveStalls
	s.ActiveSyncs += other.ActiveSyncs
	if other.OldestSyncAgeNanos > s.OldestSyncAgeNanos {
		s.OldestSyncAgeNanos = other.OldestSyncAgeNanos
	}
	s.Readers += other.Readers
	s.ReaderHighWater += other.ReaderHighWater
	s.SyncWait.Merge(other.SyncWait)
	s.FollowerWait.Merge(other.FollowerWait)
}

// syncStats is the grace-period engine's accounting block.
// Everything here is written on the update (Synchronize/Register) path
// only: the read-side primitives never touch it, keeping ReadLock and
// ReadUnlock at their two plain atomic operations.
type syncStats struct {
	syncs     atomic.Int64
	spins     atomic.Int64
	rechecks  atomic.Int64
	yields    atomic.Int64
	sleeps    atomic.Int64
	outcomes  [3]atomic.Int64 // indexed by syncOutcome
	highWater atomic.Int64

	// Stall/robustness accounting (see stall.go, engine.go). activeStalls
	// is a gauge: raised once per Synchronize call that stalls, lowered
	// when the call finally completes.
	stalls       atomic.Int64
	activeStalls atomic.Int64

	// In-flight Synchronize registry, behind the grace-period-age gauge
	// (Stats.ActiveSyncs / OldestSyncAgeNanos). A short mutex-guarded
	// slice with one entry per call now inside Synchronize: two
	// uncontended lock acquisitions are noise next to a grace period,
	// and the read side never touches it.
	activeMu   sync.Mutex
	active     []inflightSync
	activeNext uint64

	wait     citrusstat.Histogram
	follower citrusstat.Histogram
}

// An inflightSync is one in-flight Synchronize call: its token and its
// entry time.
type inflightSync struct {
	token uint64
	start time.Time
}

// syncEnter registers one in-flight Synchronize call and returns the
// token syncExit takes (see syncCall's begin and end).
func (s *syncStats) syncEnter(start time.Time) uint64 {
	s.activeMu.Lock()
	defer s.activeMu.Unlock()
	s.activeNext++
	s.active = append(s.active, inflightSync{token: s.activeNext, start: start})
	return s.activeNext
}

// syncExit removes one in-flight call from the registry.
func (s *syncStats) syncExit(token uint64) {
	s.activeMu.Lock()
	defer s.activeMu.Unlock()
	for i, a := range s.active {
		if a.token == token {
			last := len(s.active) - 1
			s.active[i] = s.active[last]
			s.active = s.active[:last]
			return
		}
	}
}

// syncAges reports the in-flight gauge pair: how many Synchronize calls
// are running and the age of the oldest.
func (s *syncStats) syncAges(now time.Time) (active int64, oldest time.Duration) {
	s.activeMu.Lock()
	defer s.activeMu.Unlock()
	for _, a := range s.active {
		if age := now.Sub(a.start); age > oldest {
			oldest = age
		}
	}
	return int64(len(s.active)), oldest
}

// syncCost accumulates one Synchronize call's waiting effort, split by
// phase: busy spins before the first yield, then re-checks each paired
// with a Gosched (yields) or a brief sleep (sleeps). Kept as a plain
// struct so the wait loops touch no shared cache lines until the final
// record.
type syncCost struct {
	spins    int64
	rechecks int64
	yields   int64
	sleeps   int64
}

// noteReaders records a new registration count for the high-water mark.
// Callers hold the domain's registration mutex, so load+store does not
// race with other writers; Stats readers see it atomically.
func (s *syncStats) noteReaders(n int) {
	if int64(n) > s.highWater.Load() {
		s.highWater.Store(int64(n))
	}
}

// record accounts one completed Synchronize under how it finished.
func (s *syncStats) record(start time.Time, c syncCost, o syncOutcome) {
	s.syncs.Add(1)
	if c.spins != 0 {
		s.spins.Add(c.spins)
	}
	if c.rechecks != 0 {
		s.rechecks.Add(c.rechecks)
	}
	if c.yields != 0 {
		s.yields.Add(c.yields)
	}
	if c.sleeps != 0 {
		s.sleeps.Add(c.sleeps)
	}
	s.outcomes[o].Add(1)
	s.wait.Record(time.Since(start))
}

// followWait records one follower episode's duration.
func (s *syncStats) followWait(d time.Duration) { s.follower.Record(d) }

// snapshot builds the exported view.
func (s *syncStats) snapshot(readers int) Stats {
	active, oldest := s.syncAges(time.Now())
	return Stats{
		ActiveSyncs:        active,
		OldestSyncAgeNanos: oldest.Nanoseconds(),
		Synchronizes:       s.syncs.Load(),
		SyncSpins:          s.spins.Load(),
		SyncRechecks:       s.rechecks.Load(),
		SyncYields:         s.yields.Load(),
		SyncSleeps:         s.sleeps.Load(),
		SyncLeads:          s.outcomes[syncLed].Load(),
		SyncShares:         s.outcomes[syncShared].Load(),
		SyncExpedited:      s.outcomes[syncExpedited].Load(),
		Stalls:             s.stalls.Load(),
		ActiveStalls:       s.activeStalls.Load(),
		Readers:            readers,
		ReaderHighWater:    s.highWater.Load(),
		SyncWait:           s.wait.Snapshot(),
		FollowerWait:       s.follower.Snapshot(),
	}
}
