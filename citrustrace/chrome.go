package citrustrace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace_event serialization. The output is the JSON Object Format
// of the Trace Event specification — {"traceEvents": [...]} — which
// loads directly in chrome://tracing and in Perfetto's legacy-trace
// importer.
//
// Mapping: every ring becomes one named thread (pid 1), so each tree
// handle's operations render as their own track, with the domain's
// grace-period ring ("rcu") alongside. Span
// events become complete events (ph "X" with ts+dur); instant events
// become thread-scoped instants (ph "i"). Grace periods correlate with
// their per-reader waits through args.gp, and reader waits name the
// rcu reader handle id in args.reader — which matches the "reader-N"
// thread labels of that reader's operation ring.

// chromeEvent is one entry of the traceEvents array.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`            // microseconds since epoch
	Dur   *float64       `json:"dur,omitempty"` // microseconds
	PID   int            `json:"pid"`
	TID   uint32         `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const chromePID = 1

// chromeArgs builds the args object for one event.
func chromeArgs(ev Event) map[string]any {
	switch ev.Type {
	case EvContains:
		return map[string]any{"found": ev.A == 1}
	case EvInsert:
		return map[string]any{"inserted": ev.A == 1, "retries": ev.B}
	case EvDelete:
		outcome := [...]string{"miss", "one-child", "two-child"}
		o := "unknown"
		if ev.A < uint64(len(outcome)) {
			o = outcome[ev.A]
		}
		return map[string]any{"outcome": o, "retries": ev.B}
	case EvLockWait, EvValidateFail:
		return map[string]any{"site": SiteName(ev.A)}
	case EvSync:
		return map[string]any{"gp": ev.A, "spins": ev.B, "yields": ev.C}
	case EvReaderWait:
		return map[string]any{"gp": ev.A, "reader": ev.B, "spins": ev.C}
	case EvGPLead:
		return map[string]any{"gp": ev.A, "seq": ev.B, "readers_waited": ev.C}
	case EvGPShare:
		return map[string]any{"gp": ev.A, "target_seq": ev.B, "inflight_seq": ev.C}
	case EvRetire:
		return map[string]any{"nodes": ev.A}
	case EvStall:
		return map[string]any{"gp": ev.A, "first_reader": ev.B, "stalled_readers": ev.C}
	default:
		return nil
	}
}

// chromeCat buckets event types into trace categories, so tracks can be
// filtered in the viewer.
func chromeCat(t EventType) string {
	switch t {
	case EvSync, EvReaderWait, EvSyncWait, EvGPLead, EvGPShare, EvStall:
		return "rcu"
	case EvRetire:
		return "reclaim"
	default:
		return "op"
	}
}

// WriteChromeTrace serializes the trace in Chrome trace_event JSON.
// Shards map to Chrome processes (pid = shard+1), so a forest trace
// merged with MergeShards renders one process group per shard; a
// single-recorder trace stays entirely in pid 1.
func (t Trace) WriteChromeTrace(w io.Writer) error {
	ct := chromeTrace{DisplayTimeUnit: "ns"}
	shards := map[int]bool{}
	for _, ri := range t.Rings {
		shards[ri.Shard] = true
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name:  "thread_name",
			Phase: "M",
			PID:   chromePID + ri.Shard,
			TID:   ri.ID,
			Args:  map[string]any{"name": ri.Label},
		})
	}
	if len(shards) > 1 {
		for shard := range shards {
			ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
				Name:  "process_name",
				Phase: "M",
				PID:   chromePID + shard,
				Args:  map[string]any{"name": fmt.Sprintf("shard-%d", shard)},
			})
		}
	}
	for _, ev := range t.Events {
		ce := chromeEvent{
			Name: ev.Type.String(),
			Cat:  chromeCat(ev.Type),
			TS:   float64(ev.Start.Nanoseconds()) / 1e3,
			PID:  chromePID + ev.Shard,
			TID:  ev.Ring,
			Args: chromeArgs(ev),
		}
		if ev.Dur > 0 || isSpan(ev.Type) {
			dur := float64(ev.Dur.Nanoseconds()) / 1e3
			ce.Phase = "X"
			ce.Dur = &dur
		} else {
			ce.Phase = "i"
			ce.Scope = "t"
		}
		ct.TraceEvents = append(ct.TraceEvents, ce)
	}
	return json.NewEncoder(w).Encode(ct)
}

// isSpan reports whether the type is a duration event even when the
// measured duration rounds to zero.
func isSpan(t EventType) bool {
	switch t {
	case EvContains, EvInsert, EvDelete, EvLockWait, EvSyncWait, EvSync, EvReaderWait,
		EvGPLead, EvGPShare, EvStall:
		return true
	}
	return false
}
