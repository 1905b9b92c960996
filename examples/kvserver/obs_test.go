package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/go-citrus/citrus/citrusstat/promtext"
)

// promScrape GETs /metrics.prom off the server's mux and runs the
// payload through the strict text-format parser, failing the test on
// any malformation (interleaved families, non-cumulative buckets,
// +Inf/_count mismatch, ...).
func promScrape(t *testing.T, s *server) promtext.Metrics {
	t.Helper()
	rec := httptest.NewRecorder()
	s.statsMux().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics.prom", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics.prom: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Fatalf("/metrics.prom: Content-Type %q", ct)
	}
	m, err := promtext.Parse(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatalf("/metrics.prom does not parse: %v\n%s", err, rec.Body.String())
	}
	return m
}

// TestPromMetricsEndpoint drives both faces of the store and checks
// the Prometheus payload end to end at one shard and at eight: the
// payload parses strictly, the request histograms carry (face, op)
// labels with the right counts, the shard and key gauges are right, and
// every citrus_* series appears once per shard with the per-shard
// counters summing to what was done.
func TestPromMetricsEndpoint(t *testing.T) {
	for _, shards := range []int{1, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := defaultKVConfig()
			cfg.shards = shards
			s := newServer(cfg)
			h := s.newHandle()
			defer h.Close()
			mux := s.statsMux()

			const n = 64
			for k := 0; k < n; k++ {
				if got, _ := s.exec(h, fmt.Sprintf("SET %d v%d", k, k)); got != "OK" {
					t.Fatalf("SET %d = %q", k, got)
				}
			}
			for k := 0; k < n; k++ {
				s.exec(h, fmt.Sprintf("GET %d", k))
			}
			// A few requests on the HTTP face too.
			for k := 0; k < 4; k++ {
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest("GET", "/kv/"+strconv.Itoa(k), nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("GET /kv/%d: status %d", k, rec.Code)
				}
			}

			m := promScrape(t, s)

			if f := m["kvserver_ops_total"]; f == nil || f.Type != "counter" || f.Samples[0].Value < 2*n {
				t.Fatalf("kvserver_ops_total wrong: %+v", f)
			}
			req := m["kvserver_request_seconds"]
			if req == nil || req.Type != "histogram" {
				t.Fatalf("kvserver_request_seconds missing or not a histogram: %+v", req)
			}
			for _, want := range []struct {
				face, op string
				count    float64
			}{{"tcp", "set", n}, {"tcp", "get", n}, {"http", "get", 4}} {
				sm := req.Sample("face", want.face, "op", want.op, "le", "+Inf")
				if sm == nil || sm.Value != want.count {
					t.Fatalf("request histogram {face=%s,op=%s}: +Inf = %+v, want %v",
						want.face, want.op, sm, want.count)
				}
			}

			// Per-shard series: one sample per shard, counters summing to
			// the fold.
			ins := m["citrus_tree_inserts_total"]
			if ins == nil || len(ins.Samples) != shards {
				t.Fatalf("citrus_tree_inserts_total has %d samples, want %d", len(ins.Samples), shards)
			}
			var total float64
			seen := map[string]bool{}
			for _, sm := range ins.Samples {
				shard := sm.Label("shard")
				if shard == "" || seen[shard] {
					t.Fatalf("bad or duplicate shard label %q", shard)
				}
				seen[shard] = true
				total += sm.Value
			}
			if total != n {
				t.Fatalf("per-shard inserts sum to %v, want %d", total, n)
			}
			if v := m["kvserver_shards"].Samples[0].Value; v != float64(shards) {
				t.Fatalf("kvserver_shards = %v, want %d", v, shards)
			}
			if v := m["kvserver_keys"].Samples[0].Value; v != n {
				t.Fatalf("kvserver_keys = %v, want %d", v, n)
			}
			for _, fam := range []string{
				"citrus_rcu_synchronizes_total", "citrus_rcu_active_syncs",
				"citrus_rcu_oldest_sync_age_seconds", "citrus_tree_two_child_deletes_total",
			} {
				f := m[fam]
				if f == nil || len(f.Samples) != shards {
					t.Fatalf("%s: got %+v, want %d shard samples", fam, f, shards)
				}
			}
			// The RCU wait histogram exists per shard and is cumulative
			// (the parser already verified bucket monotonicity and
			// +Inf == _count).
			if f := m["citrus_rcu_sync_wait_seconds"]; f == nil || f.Type != "histogram" {
				t.Fatalf("citrus_rcu_sync_wait_seconds missing: %+v", f)
			}
		})
	}
}

// TestScrapeDoesNotWalkStore pins that a scrape reads counters only:
// back-to-back scrapes of a 100-key server leave the tree's scan
// counters where they were, and kvserver_keys is still exact.
func TestScrapeDoesNotWalkStore(t *testing.T) {
	s, h := newTestServer()
	defer h.Close()
	for k := 0; k < 100; k++ {
		s.exec(h, fmt.Sprintf("SET %d v", k))
	}
	first, second := promScrape(t, s), promScrape(t, s)
	for _, m := range []promtext.Metrics{first, second} {
		if v := m["kvserver_keys"].Samples[0].Value; v != 100 {
			t.Fatalf("kvserver_keys = %v, want 100", v)
		}
	}
	a := first["citrus_tree_scan_pairs_total"].Samples[0].Value
	b := second["citrus_tree_scan_pairs_total"].Samples[0].Value
	if a != b {
		t.Fatalf("citrus_tree_scan_pairs_total moved from %v to %v between two scrapes", a, b)
	}
}

// TestPromMetricsUnderBackpressure induces degradation (a reader
// parked in one shard's critical section with a grace period stalled
// behind it), sheds writes on both faces, and checks the promoted
// series tell the story: kvserver_degraded 1, shed counter advanced,
// a nonzero active-stall gauge on some shard, and a growing
// grace-period age. /healthz must agree.
func TestPromMetricsUnderBackpressure(t *testing.T) {
	cfg := defaultKVConfig()
	cfg.shards = 8
	cfg.stallTimeout = 10 * time.Millisecond
	s := newServer(cfg)
	h := s.newHandle()
	defer h.Close()
	mux := s.statsMux()
	f := s.forest

	s.exec(h, "SET 1 one")

	pr := f.Domain(5).Register()
	defer pr.Unregister()
	pr.ReadLock()
	parked := true
	defer func() {
		if parked {
			pr.ReadUnlock()
		}
	}()
	syncDone := make(chan struct{})
	go func() {
		defer close(syncDone)
		f.Domain(5).Synchronize()
	}()

	// Wait for the stall detector to flip the server degraded.
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		if rec.Code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled shard never degraded /healthz")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Shed one write per face.
	if got, _ := s.exec(h, "SET 7 seven"); !strings.HasPrefix(got, "BUSY") {
		t.Fatalf("degraded SET = %q, want BUSY…", got)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("PUT", "/kv/8", strings.NewReader("eight")))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded PUT: status %d", rec.Code)
	}

	m := promScrape(t, s)
	if v := m["kvserver_degraded"].Samples[0].Value; v != 1 {
		t.Fatalf("kvserver_degraded = %v, want 1", v)
	}
	if v := m["kvserver_shed_writes_total"].Samples[0].Value; v < 2 {
		t.Fatalf("kvserver_shed_writes_total = %v, want ≥ 2", v)
	}
	if v := m["kvserver_stall_reports_total"].Samples[0].Value; v < 1 {
		t.Fatalf("kvserver_stall_reports_total = %v, want ≥ 1", v)
	}
	var stalls, oldest float64
	for _, sm := range m["citrus_rcu_active_stalls"].Samples {
		stalls += sm.Value
	}
	for _, sm := range m["citrus_rcu_oldest_sync_age_seconds"].Samples {
		if sm.Value > oldest {
			oldest = sm.Value
		}
	}
	if stalls < 1 {
		t.Fatalf("citrus_rcu_active_stalls sums to %v, want ≥ 1", stalls)
	}
	if oldest <= 0 {
		t.Fatalf("citrus_rcu_oldest_sync_age_seconds max = %v, want > 0", oldest)
	}
	// The stalled shard specifically carries the gauge.
	if sm := m["citrus_rcu_active_stalls"].Sample("shard", "5"); sm == nil || sm.Value < 1 {
		t.Fatalf("shard 5 active_stalls = %+v, want ≥ 1", sm)
	}

	// Recovery: the gauges return to zero and the payload still parses.
	pr.ReadUnlock()
	parked = false
	<-syncDone
	deadline = time.Now().Add(10 * time.Second)
	for {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		if rec.Code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not recover")
		}
		time.Sleep(2 * time.Millisecond)
	}
	m = promScrape(t, s)
	if v := m["kvserver_degraded"].Samples[0].Value; v != 0 {
		t.Fatalf("kvserver_degraded after recovery = %v, want 0", v)
	}
}

// TestShardedTraceEndpoint lifts PR6's restriction: with -shards the
// flight recorder now works per shard and /debug/trace serves the
// merged, shard-tagged dump (and its Chrome form renders one process
// per shard).
func TestShardedTraceEndpoint(t *testing.T) {
	cfg := defaultKVConfig()
	cfg.shards = 4
	s := newServer(cfg)
	h := s.newHandle()
	defer h.Close()
	mux := s.statsMux()

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("/debug/trace with tracing disabled: status %d, want 404", rec.Code)
	}

	s.forest.EnableTracing()
	const n = 64
	for k := 0; k < n; k++ {
		s.exec(h, fmt.Sprintf("SET %d v%d", k, k))
	}
	for k := 0; k < n; k++ {
		s.exec(h, fmt.Sprintf("GET %d", k))
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace: status %d", rec.Code)
	}
	var tr struct {
		Rings []struct {
			ID    uint32 `json:"id"`
			Shard int    `json:"shard"`
		} `json:"rings"`
		Events []struct {
			Start int64  `json:"start"`
			Type  string `json:"type"`
			Shard int    `json:"shard"`
		} `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatalf("/debug/trace: bad JSON: %v", err)
	}
	if len(tr.Events) == 0 {
		t.Fatal("merged trace has no events")
	}
	shardsSeen := map[int]bool{}
	for i, ev := range tr.Events {
		shardsSeen[ev.Shard] = true
		if i > 0 && ev.Start < tr.Events[i-1].Start {
			t.Fatalf("merged events out of time order at %d", i)
		}
	}
	if len(shardsSeen) < 2 {
		t.Fatalf("expected events from several shards, got %v", shardsSeen)
	}
	ringIDs := map[uint32]bool{}
	for _, ri := range tr.Rings {
		if ringIDs[ri.ID] {
			t.Fatalf("duplicate ring ID %d in merged dump", ri.ID)
		}
		ringIDs[ri.ID] = true
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?format=chrome", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/trace?format=chrome: status %d", rec.Code)
	}
	var ct struct {
		TraceEvents []struct {
			PID int `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ct); err != nil {
		t.Fatalf("chrome trace: bad JSON: %v", err)
	}
	pids := map[int]bool{}
	for _, ev := range ct.TraceEvents {
		pids[ev.PID] = true
	}
	if len(pids) < 2 {
		t.Fatalf("chrome trace should use one pid per shard, got %v", pids)
	}
}

// TestFlavorSelection exercises every -flavor name at one shard and at
// four: the store runs real write traffic (so deletes drive grace
// periods through the selected flavor), and the Prometheus payload
// carries the flavor label on the info metric and the RCU series.
func TestFlavorSelection(t *testing.T) {
	for _, flavor := range []string{"scalable", "classic", "ebr"} {
		for _, shards := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/shards=%d", flavor, shards), func(t *testing.T) {
				cfg := defaultKVConfig()
				cfg.flavor = flavor
				cfg.shards = shards
				s := newServer(cfg)
				h := s.newHandle()
				defer h.Close()

				// Scrambled inserts (37 is coprime to 128) leave nodes with
				// two children for the deletes to hit: only those wait out
				// a grace period.
				for i := 0; i < 128; i++ {
					k := i * 37 % 128
					if got, _ := s.exec(h, fmt.Sprintf("SET %d v%d", k, k)); got != "OK" {
						t.Fatalf("SET %d = %q", k, got)
					}
				}
				for k := 0; k < 128; k += 2 {
					if got, _ := s.exec(h, fmt.Sprintf("DEL %d", k)); got != "OK" {
						t.Fatalf("DEL %d = %q", k, got)
					}
				}
				if got := s.forest.Len(); got != 64 {
					t.Fatalf("Len = %d, want 64", got)
				}
				if err := s.forest.CheckInvariants(); err != nil {
					t.Fatal(err)
				}

				m := promScrape(t, s)
				checkSyncsAreTwoChildDeletes(t, m)
				info := m["kvserver_rcu_flavor_info"]
				if info == nil || len(info.Samples) != 1 || info.Samples[0].Label("flavor") != flavor {
					t.Fatalf("kvserver_rcu_flavor_info = %+v, want one sample labeled %q", info, flavor)
				}
				syncs := m["citrus_rcu_synchronizes_total"]
				if syncs == nil || len(syncs.Samples) != shards {
					t.Fatalf("citrus_rcu_synchronizes_total: %+v, want %d shard samples", syncs, shards)
				}
				var total float64
				for _, sm := range syncs.Samples {
					if got := sm.Label("flavor"); got != flavor {
						t.Fatalf("rcu series flavor label = %q, want %q", got, flavor)
					}
					// Every call counts once, under how it finished.
					shard := sm.Label("shard")
					var parts float64
					for _, fam := range []string{"citrus_rcu_sync_leads_total", "citrus_rcu_sync_shares_total", "citrus_rcu_sync_expedited_total"} {
						part := m[fam].Sample("shard", shard, "flavor", flavor)
						if part == nil {
							t.Fatalf("%s has no sample for shard %s", fam, shard)
						}
						parts += part.Value
					}
					if parts != sm.Value {
						t.Fatalf("shard %s: leads + shares + expedited = %v, want synchronizes = %v", shard, parts, sm.Value)
					}
					total += sm.Value
				}
				if total == 0 {
					t.Fatal("no grace periods ran; the partition check saw nothing")
				}
			})
		}
	}
}

// checkSyncsAreTwoChildDeletes asserts, per shard, that every grace
// period the shard's domain ran was a two-child delete's (paper line
// 74): citrus_rcu_synchronizes_total equals
// citrus_tree_two_child_deletes_total. Shards own no reclaimer, so
// nothing else drives a grace period and one scrape is settled.
func checkSyncsAreTwoChildDeletes(t *testing.T, m promtext.Metrics) {
	t.Helper()
	syncs := m["citrus_rcu_synchronizes_total"]
	if syncs == nil || len(syncs.Samples) == 0 {
		t.Fatal("/metrics.prom has no citrus_rcu_synchronizes_total")
	}
	for _, sm := range syncs.Samples {
		shard := sm.Label("shard")
		tcd := m["citrus_tree_two_child_deletes_total"].Sample("shard", shard)
		if tcd == nil || tcd.Value != sm.Value {
			t.Fatalf("shard %s: citrus_rcu_synchronizes_total = %v, citrus_tree_two_child_deletes_total = %+v; want equal", shard, sm.Value, tcd)
		}
	}
}
