package rcu

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"
)

// Stall detection — the user-space analog of the kernel's RCU CPU stall
// warnings. A grace period cannot complete while any pre-existing reader
// sits inside its read-side critical section, so a single descheduled,
// deadlocked, or leaked reader handle silently hangs every updater that
// needs a Synchronize. The stall detector turns that silent hang into a
// structured report: a Synchronize call whose wait exceeds the
// configured threshold fires a StallReport naming the reader handles it
// is blocked on, bumps the Stalls counter in Stats, raises the
// ActiveStalls gauge until the call completes, and — when a tracer is
// attached — records an EvStall span into the flight recorder.
//
// Detection is passive: it never unblocks anything (doing so would
// break the RCU property). It exists so the layer above can degrade
// gracefully — shed load, flip a health check, page an operator —
// instead of hanging or OOMing. See docs/RCU.md "Robustness".

// A StallReport describes one detected grace-period stall: a
// Synchronize call that has been waiting longer than the domain's stall
// threshold, together with the readers it is blocked on.
//
// Reports fire from inside the stalled Synchronize call, on the calling
// goroutine, with no domain locks held. For a wait that keeps growing,
// reports re-fire with doubling intervals (threshold, 2×, 4×, …), so a
// long stall produces a handful of reports, not a flood.
type StallReport struct {
	// Flavor names the reporting domain flavor: "scalable" (Domain),
	// "classic" (ClassicDomain) or "ebr" (EpochDomain).
	Flavor string `json:"flavor"`

	// Waited is how long the Synchronize call had been waiting when the
	// report fired, measured from call entry.
	Waited time.Duration `json:"waited"`

	// Readers lists the readers the grace period is blocked on: those
	// still inside a read-side critical section that predates the call.
	// For a follower piggybacking on another caller's grace period
	// (Domain and EpochDomain combining) the list is the currently active
	// readers — a superset of the precise blockers, which only the leader
	// knows.
	Readers []StalledReader `json:"readers"`
}

// String renders the report in one log-friendly line.
func (r StallReport) String() string {
	ids := make([]string, len(r.Readers))
	for i, sr := range r.Readers {
		ids[i] = sr.String()
	}
	return fmt.Sprintf("rcu: %s grace period stalled %v waiting on reader(s) [%s]",
		r.Flavor, r.Waited.Round(time.Millisecond), strings.Join(ids, ", "))
}

// A StalledReader identifies one reader a stalled grace period is
// blocked on.
type StalledReader struct {
	// ID is the reader handle's domain-unique id (Handle.ID,
	// ClassicHandle.ID, EpochHandle.ID), matching the reader ids in trace
	// events.
	ID uint64 `json:"id"`

	// Site is the reader's registration call site, captured when the
	// domain's SetSiteCapture is enabled; "" otherwise.
	Site string `json:"site,omitempty"`
}

// String renders "id" or "id (site)".
func (r StalledReader) String() string {
	if r.Site == "" {
		return fmt.Sprintf("%d", r.ID)
	}
	return fmt.Sprintf("%d (%s)", r.ID, r.Site)
}

// StallControl is the stall-detection configuration surface every
// domain flavor exposes. Callers holding a flavor behind the Flavor
// interface (a forest shard, the kvserver's store) type-assert against
// it to arm detection without knowing the concrete domain type.
type StallControl interface {
	// SetStallTimeout arms the grace-period stall detector; see
	// Domain.SetStallTimeout.
	SetStallTimeout(timeout time.Duration)

	// SetStallHandler installs the stall-report sink; see
	// Domain.SetStallHandler.
	SetStallHandler(fn func(StallReport))

	// SetSiteCapture toggles registration-site capture; see
	// Domain.SetSiteCapture.
	SetSiteCapture(on bool)

	// ActiveStalls reads the Stats.ActiveStalls gauge alone; see
	// Domain.ActiveStalls.
	ActiveStalls() int64
}

var (
	_ StallControl = (*Domain)(nil)
	_ StallControl = (*ClassicDomain)(nil)
	_ StallControl = (*EpochDomain)(nil)
)

// stallControl is the stall-detection configuration block of the
// grace-period engine. All fields are hot-toggle safe.
type stallControl struct {
	timeout atomic.Int64 // ns; 0 disables detection
	handler atomic.Pointer[func(StallReport)]
	capture atomic.Bool // capture registration sites on Register
}

// armed reports the configured threshold, 0 when detection is off.
func (c *stallControl) armed() time.Duration {
	return time.Duration(c.timeout.Load())
}

// registrationSite captures the call site that registered a reader: the
// first frame outside this package, formatted "file:line (function)".
// Used by SetSiteCapture (stall attribution) and SetLeakDetection.
func registrationSite() string {
	var pcs [8]uintptr
	n := runtime.Callers(3, pcs[:])
	frames := runtime.CallersFrames(pcs[:n])
	for {
		f, more := frames.Next()
		if f.Function == "" {
			break
		}
		if !strings.Contains(f.Function, "github.com/go-citrus/citrus/rcu.") {
			return fmt.Sprintf("%s:%d (%s)", f.File, f.Line, f.Function)
		}
		if !more {
			break
		}
	}
	return "unknown"
}
