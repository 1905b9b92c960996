package citrus

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"github.com/go-citrus/citrus/citrustrace"
)

// TestEnableTracingEndToEnd drives the public tracing API: enable,
// run a mixed workload, dump, and cross-check the trace against the
// tree's own counters.
func TestEnableTracingEndToEnd(t *testing.T) {
	tree := New[int, string]()
	if rec := tree.TraceRecorder(0); rec != nil {
		t.Fatal("tracing enabled by default")
	}
	if tr := tree.DumpTrace(); len(tr.Events) != 0 || len(tr.Rings) != 0 {
		t.Fatal("DumpTrace with tracing disabled should be empty")
	}

	rec := tree.EnableTracing()[0]
	if tree.TraceRecorder(0) != rec {
		t.Fatal("TraceRecorder does not report the recorder EnableTracing returned")
	}

	h := tree.NewHandle()
	defer h.Close()
	// Scrambled insertion order so interior nodes have two children and
	// deletes exercise the successor-relocation (grace-period) path.
	const n = 64
	for i := 0; i < n; i++ {
		h.Insert(i*37%n, "v")
	}
	for k := 0; k < n; k++ {
		h.Contains(k)
	}
	// Delete in the same scrambled order (ascending would always remove
	// the tree minimum, which never has two children).
	for i := 0; i < n; i++ {
		h.Delete(i * 37 % n)
	}

	tr := tree.DumpTrace()
	counts := map[citrustrace.EventType]int{}
	for _, ev := range tr.Events {
		counts[ev.Type]++
	}
	st := tree.Stats().Total
	// The default ring (4096 slots) comfortably holds this workload, so
	// event counts must match the counters exactly.
	if got := counts[citrustrace.EvInsert]; int64(got) != st.Inserts {
		t.Errorf("EvInsert = %d, want %d (Stats.Inserts)", got, st.Inserts)
	}
	if got := counts[citrustrace.EvContains]; int64(got) != st.Contains {
		t.Errorf("EvContains = %d, want %d (Stats.Contains)", got, st.Contains)
	}
	if got := counts[citrustrace.EvDelete]; int64(got) != st.Deletes+st.DeleteMisses {
		t.Errorf("EvDelete = %d, want %d", got, st.Deletes+st.DeleteMisses)
	}
	// Every two-child delete pays one grace period: the updater-side
	// wait span and the domain-side synchronize span must both agree
	// with the TwoChildDeletes counter.
	if got := counts[citrustrace.EvSyncWait]; int64(got) != st.TwoChildDeletes {
		t.Errorf("EvSyncWait = %d, want %d (Stats.TwoChildDeletes)", got, st.TwoChildDeletes)
	}
	if got := counts[citrustrace.EvSync]; int64(got) != st.TwoChildDeletes {
		t.Errorf("EvSync = %d, want %d (Stats.TwoChildDeletes)", got, st.TwoChildDeletes)
	}
	if st.TwoChildDeletes == 0 {
		t.Error("workload produced no two-child deletes; grace-period tracing untested")
	}

	tree.DisableTracing()
	if tree.TraceRecorder(0) != nil {
		t.Fatal("TraceRecorder non-nil after DisableTracing")
	}
	// The recorder outlives detachment: a final snapshot still works.
	if got := len(rec.Snapshot().Events); got != len(tr.Events) {
		t.Errorf("post-disable snapshot has %d events, want %d", got, len(tr.Events))
	}
}

// TestDumpTraceChromeFormat writes the Chrome trace_event dump through
// the public API and checks that it parses and that grace-period waits
// name the reader handle that was waited on.
func TestDumpTraceChromeFormat(t *testing.T) {
	tree := New[int, int]()
	tree.EnableTracing()
	h := tree.NewHandle()
	defer h.Close()
	for i := 0; i < 32; i++ {
		h.Insert(i*21%32, i) // scrambled: interior nodes get two children
	}
	for i := 0; i < 32; i++ {
		h.Delete(i * 21 % 32)
	}
	var buf bytes.Buffer
	if err := tree.DumpTrace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ct); err != nil {
		t.Fatalf("chrome dump is not valid JSON: %v", err)
	}
	var readerRing string
	var syncs int
	for _, ev := range ct.TraceEvents {
		switch {
		case ev.Name == "thread_name" && ev.Phase == "M":
			if name, _ := ev.Args["name"].(string); len(name) > 7 && name[:7] == "reader-" {
				readerRing = name
			}
		case ev.Name == "synchronize":
			syncs++
		}
	}
	if readerRing == "" {
		t.Error("no reader-<id> ring in the chrome dump")
	}
	if syncs == 0 {
		t.Error("no synchronize spans in the chrome dump")
	}
}

// TestTracingToggleRace hammers EnableTracing/DisableTracing/DumpTrace
// against a live workload through the public API; run with -race.
func TestTracingToggleRace(t *testing.T) {
	tree := New[int, int]()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := tree.NewHandle()
			defer h.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := (w*101 + i) % 128
				switch i % 3 {
				case 0:
					h.Insert(k, k)
				case 1:
					h.Delete(k)
				default:
					h.Contains(k)
				}
			}
		}(w)
	}
	deadline := time.Now().Add(400 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		switch i % 4 {
		case 0:
			tree.EnableTracing(citrustrace.WithRingSize(256))
		case 1, 2:
			tree.DumpTrace()
		case 3:
			tree.DisableTracing()
		}
	}
	close(stop)
	wg.Wait()
	tree.DisableTracing()
	if err := tree.CheckInvariants(); err != nil {
		t.Fatalf("invariants violated after traced churn: %v", err)
	}
}
