// Package citrustrace is the event-tracing layer of the Citrus
// reproduction: a low-overhead flight recorder that captures *causality*
// where the stats layer (package citrusstat, rcu.Stats,
// citrus.Forest.Stats) captures *counts*.
//
// Events are typed, fixed-size records — operation spans, per-node lock
// waits, validation retries, synchronize_rcu spans with a per-reader
// wait breakdown, node retirement — written into per-writer,
// fixed-size, lock-free ring buffers. Old events are overwritten by new
// ones, so a recorder holds a sliding window of recent history ("flight
// recorder" semantics): when a grace period stalls or a delete spins on
// validation, the window shows which readers were waited on and how the
// phases interleaved.
//
// A Recorder owns the rings. Writers obtain a Ring (one per tree handle;
// a shared ring per RCU domain) and record into it
// without locks: one atomic slot claim plus plain atomic stores. A
// Snapshot merges every ring on demand, validates slots against
// concurrent overwrite, time-orders the surviving events, and can be
// serialized to JSON or to the Chrome trace_event format
// (chrome://tracing, Perfetto; see WriteChromeTrace).
//
// The package is dependency-free and usable on its own; the Citrus stack
// wires it through citrus.Forest.EnableTracing, rcu.Domain.SetTracer and
// internal/core.Tree.SetTracer, all gated behind a single
// atomic-pointer nil check so that disabled tracing costs one
// predictable branch on the hot paths and allocates nothing.
package citrustrace

import (
	"encoding/json"
	"fmt"
	"time"
)

// EventType identifies what an Event records. Span events carry a
// non-zero duration; instant events have Dur == 0 by construction.
type EventType uint8

const (
	// EvNone marks an empty or invalidated slot; never surfaced by
	// Snapshot.
	EvNone EventType = iota

	// EvContains is a wait-free lookup span. A = 1 if the key was found.
	EvContains

	// EvInsert is an insert span. A = 1 if the key was inserted (0: key
	// already present); B = validation retries paid by this call.
	EvInsert

	// EvDelete is a delete span. A = outcome (0: key absent, 1:
	// single-child unlink, 2: successor relocation — the paper's
	// two-child delete, which paid one inline grace period); B =
	// validation retries paid by this call.
	EvDelete

	// EvLockWait is a span covering time spent blocked acquiring a
	// per-node lock that was contended (uncontended acquisitions emit
	// nothing). A = lock site (see SiteName).
	EvLockWait

	// EvValidateFail is an instant event: a post-lock validation failed
	// and the operation will retry (the paper's lines 32/84). A = site.
	EvValidateFail

	// EvSyncWait is a span recorded by the *updater* around its
	// synchronize_rcu call in a two-child delete (the paper's line 74):
	// how long this operation waited for the grace period, including any
	// queueing the flavor imposes.
	EvSyncWait

	// EvSync is a span recorded by the *domain* for one grace period,
	// from Synchronize entry to return. A = grace-period id (correlates
	// with EvReaderWait), B = total spin iterations, C = total yields.
	EvSync

	// EvReaderWait is a span recorded by the domain for one reader it
	// actually waited on during a grace period: the reader was inside a
	// read-side critical section when the grace period began. A =
	// grace-period id, B = reader handle id (rcu.Handle.ID), C = spin
	// iterations spent on this reader.
	EvReaderWait

	// EvGPLead is a span recorded by the scalable domain when a
	// Synchronize call led a grace-period scan under combining: the
	// election was won and the reader scan ran on this goroutine. A =
	// grace-period id (correlates with the surrounding EvSync), B = the
	// sequence value published when the scan completed, C = how many
	// readers the scan actually waited on.
	EvGPLead

	// EvGPShare is a span recorded by the scalable domain for one
	// follower episode under combining: the call piggybacked on a grace
	// period led elsewhere, covering the wait from observing the
	// in-flight sequence to its completion. A = grace-period id of the
	// sharing call's own span (EvSync), B = the sequence target the
	// call needs, C = the in-flight sequence value it waited out.
	EvGPShare

	// EvRetire is an instant event: a delete unlinked nodes and left
	// them to the garbage collector. A = number of nodes retired.
	EvRetire

	// EvStall is a span recorded by a domain when a Synchronize call
	// crossed its stall threshold (rcu.SetStallTimeout): the wait so far,
	// from call entry to the report. A = grace-period id (correlates
	// with the surrounding EvSync), B = the id of the first reader the
	// call is blocked on, C = how many readers it is blocked on. A long
	// stall re-fires with doubling intervals, so one hung reader shows
	// as a small series of growing EvStall spans.
	EvStall

	numEventTypes // sentinel
)

var eventTypeNames = [numEventTypes]string{
	EvNone:         "none",
	EvContains:     "contains",
	EvInsert:       "insert",
	EvDelete:       "delete",
	EvLockWait:     "lock-wait",
	EvValidateFail: "validate-fail",
	EvSyncWait:     "sync-wait",
	EvSync:         "synchronize",
	EvReaderWait:   "reader-wait",
	EvGPLead:       "gp-lead",
	EvGPShare:      "gp-share",
	EvRetire:       "retire",
	EvStall:        "stall",
}

// String returns the event type's stable wire name (used in both the
// JSON dump and the Chrome trace).
func (t EventType) String() string {
	if int(t) < len(eventTypeNames) {
		return eventTypeNames[t]
	}
	return fmt.Sprintf("event-%d", uint8(t))
}

// MarshalJSON encodes the type as its name, keeping dumps readable.
func (t EventType) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// UnmarshalJSON accepts the wire names MarshalJSON emits, so trace
// dumps round-trip through encoding/json (tooling that post-processes
// /debug/trace output relies on this). Unknown names — including the
// "event-N" form used for types this build doesn't know — decode as
// EvNone rather than failing, keeping old readers forward-compatible
// with traces from newer writers.
func (t *EventType) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for i, n := range eventTypeNames {
		if n == name {
			*t = EventType(i)
			return nil
		}
	}
	*t = EvNone
	return nil
}

// Lock/validation sites, carried in the A argument of EvLockWait and
// EvValidateFail events. They name the paper's lock acquisitions:
// insert locks the parent (line 26); delete locks the parent and the
// target (47–48) and, for a two-child delete, the successor's parent
// (67) and the successor (68); validation failures are the retries of
// lines 32 and 84 (split by which validation failed).
const (
	SiteInsertParent       uint64 = iota + 1 // insert: parent of the new leaf
	SiteDeleteParent                         // delete: parent of the target
	SiteDeleteTarget                         // delete: the target node
	SiteDeleteSuccParent                     // two-child delete: successor's parent
	SiteDeleteSucc                           // two-child delete: the successor
	SiteValidateInsert                       // insert validation failed (line 32)
	SiteValidateDelete                       // delete target validation failed
	SiteValidateDeleteSucc                   // successor validation failed (line 69)
	numSites
)

var siteNames = [numSites]string{
	SiteInsertParent:       "insert-parent",
	SiteDeleteParent:       "delete-parent",
	SiteDeleteTarget:       "delete-target",
	SiteDeleteSuccParent:   "delete-succ-parent",
	SiteDeleteSucc:         "delete-succ",
	SiteValidateInsert:     "validate-insert",
	SiteValidateDelete:     "validate-delete",
	SiteValidateDeleteSucc: "validate-delete-succ",
}

// SiteName names a lock/validation site constant; unknown values format
// as "site-N".
func SiteName(s uint64) string {
	if s < numSites && siteNames[s] != "" {
		return siteNames[s]
	}
	return fmt.Sprintf("site-%d", s)
}

// An Event is one record captured by a ring. Span events cover
// [Start, Start+Dur); instant events have Dur == 0. Start is relative
// to the recorder's epoch (Trace.Epoch), so events from different rings
// share one clock. The meaning of A, B and C depends on Type.
//
// Shard is 0 for a single-recorder trace; MergeShards sets it to the
// source shard's index when folding per-shard flight recorders into one
// trace, so a merged dump still attributes every event.
type Event struct {
	Start time.Duration `json:"start"`
	Dur   time.Duration `json:"dur"`
	Type  EventType     `json:"type"`
	Ring  uint32        `json:"ring"`
	Shard int           `json:"shard,omitempty"`
	A     uint64        `json:"a,omitempty"`
	B     uint64        `json:"b,omitempty"`
	C     uint64        `json:"c,omitempty"`
}
