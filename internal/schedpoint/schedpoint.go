// Package schedpoint provides named schedule-injection points compiled
// into the hot paths of the rcu package and the Citrus core — the
// rcutorture idea applied to this repository. Each point marks one of
// the interleaving windows the paper's §4 proof obligations are about
// (between a search and its lock, between marking a node and its grace
// period, between an RCU reader's counter read and its flag publish,
// …). Under a torture run, a seeded policy decides at every hit whether
// to do nothing, yield the processor, spin, or sleep briefly, which
// drives the scheduler into the rare interleavings those windows admit.
//
// When no policy is enabled — the production state — Hit is one atomic
// pointer load and one predictable branch, allocates nothing, and takes
// no locks, the same contract as the tracing layer's disabled path
// (there is a test pinning both properties).
//
// Determinism: a policy's decision for the n-th hit of a point is a
// pure function of (seed, point, n). Replaying a run with the same seed
// replays the same decision sequence per point even though goroutine
// interleaving differs, which is what lets cmd/citrustorture reproduce
// failures from a printed seed.
package schedpoint

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Point names one injection site. The sites are chosen to attack
// specific lemmas of the paper; docs/VERIFICATION.md maps each point to
// the proof obligation it stresses.
type Point uint8

// The injection points compiled into the library.
const (
	// RCUReadLockPublish sits inside ReadLock between reading the
	// grace-period counter/state and publishing the reader's
	// critical-section word — the classic URCU race window.
	RCUReadLockPublish Point = iota

	// RCUSyncScan sits inside Synchronize's per-reader scan, between
	// readers — stretching the window in which a scanned reader's state
	// is stale while later readers are still being examined.
	RCUSyncScan

	// RCUSyncFlip sits at the start of Synchronize, before the
	// grace-period counter flip (classic flavor) or the snapshot
	// (scalable flavor).
	RCUSyncFlip

	// CoreSearchToLock sits between a search returning (prev, tag,
	// curr) and the operation locking prev — the window tag validation
	// (Lemma 3 / Figure 5) exists for.
	CoreSearchToLock

	// CoreValidateToLink sits between a successful validation and the
	// link store, stretching lock hold times and the windows of
	// concurrent operations that will fail validation against it.
	CoreValidateToLink

	// CoreMarkToGrace sits between marking the deleted node (and
	// publishing the successor copy) and the grace period of the
	// paper's line 74 — the Figure 4 window.
	CoreMarkToGrace

	// CoreBeforeReclaim sits on the reclaimer goroutine immediately
	// before a retired node is reclaimed (checked and poisoned in
	// torture mode), after its grace period elapsed.
	CoreBeforeReclaim

	// CoreReadCS sits inside the read-side critical section's descent
	// loop, once per visited node — the point that suspends searches
	// mid-tree, where Lemma 2 and the Figure 4 guarantee are live.
	CoreReadCS

	// RCUGPElect sits in the scalable domain's grace-period combining
	// path, between a Synchronize call snapshotting the sequence target
	// it needs and the leader-election loop — the window in which a
	// shared grace period could, if the protocol were wrong, be one
	// that never snapshotted this call's pre-existing readers.
	RCUGPElect

	// CoreScanCS sits inside a range scan's visit loop, once per visited
	// node — like CoreReadCS, but scans hold their critical section
	// across many nodes, so suspending here stretches a whole-traversal
	// grace-period pin rather than a single descent.
	CoreScanCS

	// NumPoints is the number of injection points.
	NumPoints
)

var pointNames = [NumPoints]string{
	RCUReadLockPublish: "rcu.readlock.publish",
	RCUSyncScan:        "rcu.sync.scan",
	RCUSyncFlip:        "rcu.sync.flip",
	CoreSearchToLock:   "core.search.lock",
	CoreValidateToLink: "core.validate.link",
	CoreMarkToGrace:    "core.mark.grace",
	CoreBeforeReclaim:  "core.reclaim",
	CoreReadCS:         "core.read.cs",
	RCUGPElect:         "rcu.gp.elect",
	CoreScanCS:         "core.scan.cs",
}

func (p Point) String() string {
	if p < NumPoints {
		return pointNames[p]
	}
	return "schedpoint.invalid"
}

// Weights is a point's action distribution in basis points (out of
// 10000); the remainder is "do nothing". The zero value never perturbs.
type Weights struct {
	Gosched uint32 // yield the processor
	Spin    uint32 // busy-spin spinIters iterations
	Sleep   uint32 // sleep a pseudo-random duration up to MaxSleep
}

const weightScale = 10000

// counter is a per-point hit counter on its own cache line, so torture
// runs don't serialize unrelated points through false sharing.
type counter struct {
	n atomic.Uint64
	_ [120]byte
}

// Policy is a seeded injection policy: per-point action weights plus
// the spin/sleep magnitudes. A Policy must be fully configured before
// Enable; after that it is only read (hit counters aside), so one
// policy may serve any number of goroutines.
type Policy struct {
	seed      uint64
	spinIters uint32
	maxSleep  time.Duration
	weights   [NumPoints]Weights
	hits      [NumPoints]counter
}

// DefaultMaxSleep is the default cap on injected sleeps. Long enough to
// let a whole delete + grace period + reclaim pass under a suspended
// reader, short enough to keep torture throughput in the tens of
// thousands of operations per second.
const DefaultMaxSleep = 200 * time.Microsecond

// NewPolicy returns a policy with the default torture weights: every
// point yields a few percent of the time, spins occasionally, and
// sleeps rarely — rare enough to keep throughput, often enough that a
// multi-second run suspends thousands of operations inside each window.
func NewPolicy(seed uint64) *Policy {
	p := &Policy{seed: seed, spinIters: 2000, maxSleep: DefaultMaxSleep}
	for pt := Point(0); pt < NumPoints; pt++ {
		p.weights[pt] = Weights{Gosched: 2000, Spin: 400, Sleep: 100}
	}
	// The reader-side and reclaim-side points carry more sleep weight:
	// suspending a reader mid-descent (or delaying a reclaim) is what
	// makes the reclamation oracle's windows observable.
	p.weights[CoreReadCS].Sleep = 300
	p.weights[CoreBeforeReclaim].Sleep = 300
	p.weights[CoreSearchToLock].Sleep = 300
	// Stretching the election window is what lets a mis-combined grace
	// period (one that never snapshotted the waiter's readers) actually
	// release a waiter while a stale reader is still mid-descent.
	p.weights[RCUGPElect].Sleep = 300
	return p
}

// Seed reports the policy's seed.
func (p *Policy) Seed() uint64 { return p.seed }

// SetWeights overrides one point's action distribution. Must be called
// before Enable.
func (p *Policy) SetWeights(pt Point, w Weights) { p.weights[pt] = w }

// SetMaxSleep caps injected sleeps. Must be called before Enable.
func (p *Policy) SetMaxSleep(d time.Duration) {
	if d > 0 {
		p.maxSleep = d
	}
}

// Hits returns the per-point hit counts, keyed by point name.
func (p *Policy) Hits() map[string]uint64 {
	m := make(map[string]uint64, NumPoints)
	for pt := Point(0); pt < NumPoints; pt++ {
		m[pt.String()] = p.hits[pt].n.Load()
	}
	return m
}

// TotalHits reports the sum of all per-point hit counts.
func (p *Policy) TotalHits() uint64 {
	var t uint64
	for pt := Point(0); pt < NumPoints; pt++ {
		t += p.hits[pt].n.Load()
	}
	return t
}

// active is the process-wide enabled policy; nil means injection is
// off. One pointer for the whole process keeps the disabled check to a
// single load of an always-shared cache line.
var active atomic.Pointer[Policy]

// Enable turns injection on with the given policy. Torture harnesses
// own this switch; enabling injection in production makes no sense.
func Enable(p *Policy) { active.Store(p) }

// Disable turns injection off. Hits already in flight complete their
// current action.
func Disable() { active.Store(nil) }

// Enabled reports whether a policy is currently enabled.
func Enabled() bool { return active.Load() != nil }

// Hit marks one arrival at an injection point. With injection disabled
// this is one atomic load and one branch; it never allocates.
func Hit(pt Point) {
	if p := active.Load(); p != nil {
		p.strike(pt)
	}
}

// spinSink absorbs spin-loop results so the loop cannot be optimized
// away.
var spinSink atomic.Uint64

// strike is the slow path: draw a deterministic decision for this
// point's n-th hit and perform it.
func (p *Policy) strike(pt Point) {
	idx := p.hits[pt].n.Add(1)
	r := splitmix64(p.seed ^ uint64(pt)<<56 ^ idx)
	w := &p.weights[pt]
	switch a := action(r, *w); a {
	case actGosched:
		runtime.Gosched()
	case actSpin:
		x := r
		for i := uint32(0); i < p.spinIters; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		spinSink.Store(x)
	case actSleep:
		// 1ns..maxSleep, biased uniform from the draw's high bits.
		time.Sleep(time.Duration(1 + (r>>16)%uint64(p.maxSleep)))
	}
}

type act uint8

const (
	actNop act = iota
	actGosched
	actSpin
	actSleep
)

// action classifies a raw draw against the weights; split out so tests
// can pin the decision function without performing the actions.
func action(r uint64, w Weights) act {
	roll := uint32(r % weightScale)
	switch {
	case roll < w.Gosched:
		return actGosched
	case roll < w.Gosched+w.Spin:
		return actSpin
	case roll < w.Gosched+w.Spin+w.Sleep:
		return actSleep
	default:
		return actNop
	}
}

// splitmix64 is the SplitMix64 mixer — one multiply-xorshift cascade,
// enough to decorrelate (seed, point, index) triples.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
