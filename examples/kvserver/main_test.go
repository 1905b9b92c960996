package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer() (*server, storeHandle) {
	s := newServer(defaultKVConfig())
	return s, s.newHandle()
}

func TestExecProtocol(t *testing.T) {
	s, h := newTestServer()
	defer h.Close()
	steps := []struct {
		cmd  string
		want string
	}{
		{"SET 1 hello world", "OK"},
		{"SET 1 other", "EXISTS"},
		{"GET 1", "VALUE hello world"},
		{"GET 2", "NOT_FOUND"},
		{"DEL 2", "NOT_FOUND"},
		{"DEL 1", "OK"},
		{"GET 1", "NOT_FOUND"},
		{"LEN", "LEN 0"},
		{"set 5 lowercase-verb", "OK"},
		{"len", "LEN 1"},
		{"", "ERR empty command"},
		{"SET", "ERR usage: SET <key> <value>"},
		{"SET x y", "ERR usage: SET <key> <value>"},
		{"GET notanumber", "ERR usage: GET <key>"},
		{"DEL", "ERR usage: DEL <key>"},
		{"SCAN", "ERR usage: SCAN <lo> <hi> <n>"},
		{"SCAN 1 2", "ERR usage: SCAN <lo> <hi> <n>"},
		{"SCAN 1 2 x", "ERR usage: SCAN <lo> <hi> <n>"},
		{"SCAN 1 2 0", "ERR usage: SCAN <lo> <hi> <n>"},
		{"BOGUS 1", "ERR unknown command BOGUS"},
	}
	for _, st := range steps {
		got, quit := s.exec(h, st.cmd)
		if got != st.want || quit {
			t.Fatalf("exec(%q) = (%q, quit=%v), want (%q, false)", st.cmd, got, quit, st.want)
		}
	}
	if got, quit := s.exec(h, "QUIT"); got != "BYE" || !quit {
		t.Fatalf("QUIT = (%q, %v)", got, quit)
	}
}

func TestServerEndToEnd(t *testing.T) {
	// The full demo: listener, concurrent TCP clients, verification of
	// every reply, invariant check — on ephemeral ports for both the
	// line protocol and the HTTP observability endpoint.
	if err := run("127.0.0.1:0", "127.0.0.1:0", false, false, defaultKVConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestServerEndToEndNoHTTP(t *testing.T) {
	if err := run("127.0.0.1:0", "", false, false, defaultKVConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestServerEndToEndTraced(t *testing.T) {
	if err := run("127.0.0.1:0", "127.0.0.1:0", false, true, defaultKVConfig()); err != nil {
		t.Fatal(err)
	}
}

// TestMetricsEndpoint checks that /metrics.prom is the server's one
// metrics surface: the JSON /metrics, /debug/citrus and /debug/vars
// documents are gone, every field only they carried is a series, and
// the library's counters made it through a server that has done real
// work.
func TestMetricsEndpoint(t *testing.T) {
	s, h := newTestServer()
	defer h.Close()
	s.exec(h, "SET 2 two")
	s.exec(h, "SET 1 one")
	s.exec(h, "SET 3 three")
	s.exec(h, "SET 1 again") // insert_existing
	s.exec(h, "GET 1")
	s.exec(h, "DEL 2") // two children → one grace period
	s.exec(h, "DEL 9") // delete_misses

	mux := s.statsMux()
	for _, path := range []string{"/metrics", "/debug/citrus", "/debug/vars"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, rec.Code)
		}
	}

	m := promScrape(t, s)
	for _, name := range []string{
		"citrus_tree_insert_existing_total", "citrus_tree_delete_misses_total",
		"citrus_rcu_sync_spins_total", "citrus_rcu_sync_rechecks_total",
		"citrus_rcu_sync_yields_total", "citrus_rcu_sync_sleeps_total",
		"citrus_rcu_reader_high_water", "citrus_rcu_follower_wait_seconds",
	} {
		if f := m[name]; f == nil || len(f.Samples) == 0 {
			t.Errorf("/metrics.prom has no %s", name)
		}
	}
	one := func(name string) float64 {
		t.Helper()
		f := m[name]
		if f == nil || len(f.Samples) != 1 {
			t.Fatalf("%s: %+v, want one sample", name, f)
		}
		return f.Samples[0].Value
	}
	for name, want := range map[string]float64{
		"kvserver_ops_total":                  7,
		"kvserver_keys":                       2,
		"citrus_tree_inserts_total":           3,
		"citrus_tree_insert_existing_total":   1,
		"citrus_tree_deletes_total":           1,
		"citrus_tree_delete_misses_total":     1,
		"citrus_tree_two_child_deletes_total": 1,
	} {
		if got := one(name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// Every grace period on a shard's domain is a two-child delete's
	// (paper line 74): nothing else drives one, so a plain scrape is
	// already settled.
	checkSyncsAreTwoChildDeletes(t, m)
	if got := one("citrus_rcu_reader_high_water"); got < 1 {
		t.Fatalf("citrus_rcu_reader_high_water = %v with a handle open", got)
	}
}

// TestTraceEndpoint covers /debug/trace in all three modes: disabled
// (404), native JSON, and the Chrome trace_event form.
func TestTraceEndpoint(t *testing.T) {
	s, h := newTestServer()
	defer h.Close()
	mux := s.statsMux()

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != 404 {
		t.Fatalf("/debug/trace with tracing disabled: status %d, want 404", rec.Code)
	}

	s.forest.EnableTracing()
	s.exec(h, "SET 2 two")
	s.exec(h, "SET 1 one")
	s.exec(h, "SET 3 three")
	s.exec(h, "DEL 2") // two children → one grace period

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/trace: status %d", rec.Code)
	}
	var tr struct {
		Events []struct {
			Type string `json:"type"`
		} `json:"events"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatalf("/debug/trace: bad JSON: %v", err)
	}
	byType := map[string]int{}
	for _, ev := range tr.Events {
		byType[ev.Type]++
	}
	if byType["insert"] != 3 || byType["delete"] != 1 {
		t.Fatalf("/debug/trace events wrong: %v", byType)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?format=chrome", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/trace?format=chrome: status %d", rec.Code)
	}
	var ct struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ct); err != nil {
		t.Fatalf("chrome trace: bad JSON: %v", err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}
}

// TestPprofEndpoint checks that net/http/pprof is routed on the stats
// mux (the index page lists the standard profiles).
func TestPprofEndpoint(t *testing.T) {
	s, h := newTestServer()
	defer h.Close()
	rec := httptest.NewRecorder()
	s.statsMux().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/pprof/: status %d", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, "goroutine") || !strings.Contains(body, "heap") {
		t.Fatalf("/debug/pprof/ index does not list profiles:\n%.200s", body)
	}
}

// TestGracefulDegradation pins the acceptance scenario end to end: a
// reader parked in its critical section stalls the grace period a
// two-child DEL needs; the bounded DEL still takes effect and returns
// within its deadline; the stall detector flips the server degraded
// (healthz 503 + Retry-After, SET/DEL shed on both faces) while reads
// keep serving on both faces; and releasing the reader recovers it.
func TestGracefulDegradation(t *testing.T) {
	cfg := defaultKVConfig()
	cfg.stallTimeout = 10 * time.Millisecond
	cfg.opTimeout = 300 * time.Millisecond
	s := newServer(cfg)
	h := s.newHandle()
	defer h.Close()
	mux := s.statsMux()

	// Healthy baseline.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy /healthz: status %d\n%s", rec.Code, rec.Body)
	}

	// A root with two children: deleting it takes the grace-period path
	// (paper line 74).
	s.exec(h, "SET 2 two")
	s.exec(h, "SET 1 one")
	s.exec(h, "SET 3 three")

	// Park a reader inside its read-side critical section.
	pr := s.forest.Flavor(0).Register()
	defer pr.Unregister()
	pr.ReadLock()
	parked := true
	defer func() {
		if parked {
			pr.ReadUnlock()
		}
	}()

	// The bounded DEL: its grace-period wait must hit the deadline, yet
	// the delete has linearized — OK, and the key is gone.
	start := time.Now()
	if got, _ := s.exec(h, "DEL 2"); got != "OK" {
		t.Fatalf("DEL 2 under a parked reader = %q, want OK", got)
	}
	if waited := time.Since(start); waited > 4*cfg.opTimeout {
		t.Fatalf("bounded DEL took %v, deadline was %v", waited, cfg.opTimeout)
	}
	if got, _ := s.exec(h, "GET 2"); got != "NOT_FOUND" {
		t.Fatalf("GET 2 after timed-out DEL = %q, want NOT_FOUND", got)
	}
	if s.gpTimeouts.Load() == 0 {
		t.Fatal("the bounded DEL did not count a grace-period timeout")
	}

	// Degraded: healthz 503 with Retry-After and a reason.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded /healthz: status %d\n%s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("degraded /healthz has no Retry-After")
	}
	if !strings.Contains(rec.Body.String(), "stalled") {
		t.Fatalf("degraded /healthz names no stall:\n%s", rec.Body)
	}

	// Writes shed on both faces; reads serve on both faces.
	if got, _ := s.exec(h, "SET 7 seven"); !strings.HasPrefix(got, "BUSY") {
		t.Fatalf("degraded SET = %q, want BUSY…", got)
	}
	if got, _ := s.exec(h, "GET 1"); got != "VALUE one" {
		t.Fatalf("degraded GET = %q, want VALUE one", got)
	}
	// Scans are reads too: both faces keep serving them while degraded.
	if got, _ := s.exec(h, "SCAN 0 10 10"); !strings.HasSuffix(got, "END 2") {
		t.Fatalf("degraded SCAN = %q, want …END 2", got)
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/kv?from=0&to=10", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"count": 2`) {
		t.Fatalf("degraded GET /kv scan: status %d body %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("PUT", "/kv/8", strings.NewReader("eight")))
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("degraded PUT /kv/8: status %d Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/kv/1", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "one" {
		t.Fatalf("degraded GET /kv/1: status %d body %q", rec.Code, rec.Body.String())
	}
	if s.shedWrites.Load() < 2 {
		t.Fatalf("shed_writes = %d, want ≥ 2", s.shedWrites.Load())
	}
	if s.stallReports.Load() == 0 {
		t.Fatal("the stall handler never fired")
	}

	// Release the reader: the grace period completes and the server
	// recovers.
	pr.ReadUnlock()
	parked = false
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec = httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		if rec.Code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server did not recover after the reader unparked:\n%s", rec.Body)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got, _ := s.exec(h, "SET 7 seven"); got != "OK" {
		t.Fatalf("SET after recovery = %q, want OK", got)
	}
	if got, _ := s.exec(h, "GET 7"); got != "VALUE seven" {
		t.Fatalf("GET after recovery = %q", got)
	}
}

// TestKVEndpoint covers the HTTP face of the store in its healthy
// paths: PUT create/conflict, GET hit/miss, DELETE hit/miss, bad keys,
// bad methods.
func TestKVEndpoint(t *testing.T) {
	s, h := newTestServer()
	defer h.Close()
	mux := s.statsMux()
	do := func(method, path, body string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		var rd *strings.Reader
		if body != "" {
			rd = strings.NewReader(body)
			mux.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
			return rec
		}
		mux.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec
	}
	if rec := do("PUT", "/kv/5", "five"); rec.Code != http.StatusCreated {
		t.Fatalf("PUT /kv/5: status %d", rec.Code)
	}
	if rec := do("PUT", "/kv/5", "again"); rec.Code != http.StatusConflict {
		t.Fatalf("second PUT /kv/5: status %d", rec.Code)
	}
	if rec := do("GET", "/kv/5", ""); rec.Code != http.StatusOK || rec.Body.String() != "five" {
		t.Fatalf("GET /kv/5: status %d body %q", rec.Code, rec.Body.String())
	}
	if rec := do("GET", "/kv/6", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("GET /kv/6: status %d", rec.Code)
	}
	if rec := do("DELETE", "/kv/5", ""); rec.Code != http.StatusOK {
		t.Fatalf("DELETE /kv/5: status %d", rec.Code)
	}
	if rec := do("DELETE", "/kv/5", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("second DELETE /kv/5: status %d", rec.Code)
	}
	if rec := do("GET", "/kv/notanumber", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("GET /kv/notanumber: status %d", rec.Code)
	}
	if rec := do("PATCH", "/kv/5", "x"); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("PATCH /kv/5: status %d", rec.Code)
	}
}

// TestKVEndpointValues pins what the two faces store: a body of exactly
// 1 MiB is stored whole, a longer one is refused with 413 and stores
// nothing, and a value with a line break is refused with 400, so the
// TCP face, which answers one line per value, never sees one. A value
// that is not valid UTF-8 is refused on both faces — 400 over HTTP, ERR
// over TCP — and stores nothing, so GET, SCAN and the JSON scan never
// disagree about it. Inner spaces and tabs round-trip on both faces.
func TestKVEndpointValues(t *testing.T) {
	s, h := newTestServer()
	defer h.Close()
	mux := s.statsMux()
	do := func(method, path, body string) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec
	}
	mib := strings.Repeat("m", 1<<20)
	if rec := do("PUT", "/kv/1", mib); rec.Code != http.StatusCreated {
		t.Fatalf("PUT of 1 MiB: status %d %s", rec.Code, rec.Body)
	}
	if rec := do("GET", "/kv/1", ""); rec.Code != http.StatusOK || rec.Body.String() != mib {
		t.Fatalf("GET of the 1 MiB value: status %d, %d bytes", rec.Code, rec.Body.Len())
	}
	if rec := do("PUT", "/kv/2", mib+"m"); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("PUT of 1 MiB + 1 byte: status %d, want 413", rec.Code)
	}
	if rec := do("GET", "/kv/2", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("GET after the refused PUT: status %d, want 404", rec.Code)
	}
	for key, body := range map[int]string{6: "a\nEND 0", 7: "a\rb", 9: "line\r\n", 12: "\xff\xfe", 13: "ok \xc3"} {
		if rec := do("PUT", fmt.Sprintf("/kv/%d", key), body); rec.Code != http.StatusBadRequest {
			t.Fatalf("PUT /kv/%d of %q: status %d, want 400", key, body, rec.Code)
		}
	}
	const spaced = " inner spaces\tand  tabs\t"
	if rec := do("PUT", "/kv/8", spaced); rec.Code != http.StatusCreated {
		t.Fatalf("PUT /kv/8: status %d", rec.Code)
	}
	if rec := do("GET", "/kv/8", ""); rec.Body.String() != spaced {
		t.Fatalf("GET /kv/8 = %q, want %q", rec.Body.String(), spaced)
	}

	c := dialTCP(t, serveTCP(t, s))
	send(t, c, "GET 6\nGET 7\nGET 8\nGET 12\nSCAN 2 20 10\n")
	expectBytes(t, c, "TCP face after the refused PUTs",
		"NOT_FOUND\nNOT_FOUND\nVALUE "+spaced+"\nNOT_FOUND\nKEY 8 "+spaced+"\nEND 1\n")

	const refused = "ERR value is not valid UTF-8\n"
	send(t, c, "SET 14 \xff\xfe\nSET 15 a \xc3\nGET 14\nSET 16 \u00e9t\u00e9\nGET 16\n")
	expectBytes(t, c, "TCP SETs of values that are not UTF-8",
		refused+refused+"NOT_FOUND\nOK\nVALUE \u00e9t\u00e9\n")
	if rec := do("GET", "/kv/14", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("GET /kv/14 after the refused TCP SET: status %d, want 404", rec.Code)
	}
	rec := do("GET", "/kv?from=2&to=20", "")
	if want := `"count": 2`; !strings.Contains(rec.Body.String(), want) || !strings.Contains(rec.Body.String(), `"value": "été"`) {
		t.Fatalf("JSON scan after the refused writes: %s, want 2 pairs with été", rec.Body)
	}
}

// TestServerEndToEndSharded runs the full demo — listener, concurrent
// TCP clients, reply verification, invariant check — against the
// forest backend: same protocol, same replies, keys spread across
// shards with their own RCU domains.
func TestServerEndToEndSharded(t *testing.T) {
	cfg := defaultKVConfig()
	cfg.shards = 4
	if err := run("127.0.0.1:0", "127.0.0.1:0", false, false, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestShardedMetrics checks the forest server's metrics at four shards:
// the server gauges count shards and keys, and the tree and RCU
// families carry one sample per shard, with the per-shard inserts
// summing to what was done.
func TestShardedMetrics(t *testing.T) {
	cfg := defaultKVConfig()
	cfg.shards = 4
	s := newServer(cfg)
	h := s.newHandle()
	defer h.Close()
	const n = 32
	for k := 0; k < n; k++ {
		if got, _ := s.exec(h, fmt.Sprintf("SET %d v%d", k, k)); got != "OK" {
			t.Fatalf("SET %d = %q", k, got)
		}
	}

	m := promScrape(t, s)
	if v := m["kvserver_shards"].Samples[0].Value; v != 4 {
		t.Fatalf("kvserver_shards = %v, want 4", v)
	}
	if v := m["kvserver_keys"].Samples[0].Value; v != n {
		t.Fatalf("kvserver_keys = %v, want %d", v, n)
	}
	ins := m["citrus_tree_inserts_total"]
	if ins == nil || len(ins.Samples) != 4 {
		t.Fatalf("citrus_tree_inserts_total: %+v, want 4 shard samples", ins)
	}
	var perShard float64
	for _, sm := range ins.Samples {
		perShard += sm.Value
	}
	if perShard != n {
		t.Fatalf("per-shard inserts sum to %v, want %d", perShard, n)
	}
	for _, fam := range []string{"citrus_tree_deletes_total", "citrus_rcu_synchronizes_total"} {
		if f := m[fam]; f == nil || len(f.Samples) != 4 {
			t.Fatalf("%s: %+v, want 4 shard samples", fam, f)
		}
	}
}

// TestShardedDegradationAggregates pins the forest health policy: a
// reader parked in ONE shard's critical section flips the whole server
// degraded (the router may send any write to the sick shard), while
// the sibling shards' grace periods stay live — the isolation the
// sharding exists to provide — and reads keep serving throughout.
func TestShardedDegradationAggregates(t *testing.T) {
	cfg := defaultKVConfig()
	cfg.shards = 4
	cfg.stallTimeout = 10 * time.Millisecond
	s := newServer(cfg)
	h := s.newHandle()
	defer h.Close()
	mux := s.statsMux()
	f := s.forest

	s.exec(h, "SET 1 one")

	// Park a reader in shard 3 and stall a grace period behind it.
	pr := f.Flavor(3).Register()
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
		f.Flavor(3).Synchronize() // blocks until the reader unparks
	}()

	// The stall detector fires; the aggregated probe degrades /healthz.
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		if rec.Code == http.StatusServiceUnavailable {
			if !strings.Contains(rec.Body.String(), "stalled") {
				t.Fatalf("degraded /healthz names no stall:\n%s", rec.Body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("one stalled shard never degraded /healthz")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Sibling shards stay live: their grace periods complete promptly
	// while shard 3 is stuck. Reads serve regardless.
	for i := 0; i < 3; i++ {
		done := make(chan struct{})
		go func() {
			defer close(done)
			f.Flavor(i).Synchronize()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("shard %d's grace period hung behind shard 3's stall", i)
		}
	}
	if got, _ := s.exec(h, "GET 1"); got != "VALUE one" {
		t.Fatalf("degraded GET = %q, want VALUE one", got)
	}
	if got, _ := s.exec(h, "SET 7 seven"); !strings.HasPrefix(got, "BUSY") {
		t.Fatalf("degraded SET = %q, want BUSY…", got)
	}
	if s.stallReports.Load() == 0 {
		t.Fatal("the per-shard stall handler never fired")
	}

	// Unpark: the stalled grace period completes and the server recovers.
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
			t.Fatalf("server did not recover after the reader unparked:\n%s", rec.Body)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got, _ := s.exec(h, "SET 7 seven"); got != "OK" {
		t.Fatalf("SET after recovery = %q, want OK", got)
	}
}

// TestScanTCP pins the SCAN verb's reply shape: KEY lines in ascending
// order over the half-open window, the n cap, the empty window, and the
// (tcp, scan) latency series.
func TestScanTCP(t *testing.T) {
	s, h := newTestServer()
	defer h.Close()
	for _, k := range []int{7, 1, 5, 3, 10} {
		if got, _ := s.exec(h, fmt.Sprintf("SET %d v%d", k, k)); got != "OK" {
			t.Fatalf("SET %d = %q", k, got)
		}
	}
	if got, _ := s.exec(h, "SCAN 0 10 100"); got != "KEY 1 v1\nKEY 3 v3\nKEY 5 v5\nKEY 7 v7\nEND 4" {
		t.Fatalf("SCAN 0 10 100 = %q", got)
	}
	if got, _ := s.exec(h, "SCAN 0 11 2"); got != "KEY 1 v1\nKEY 3 v3\nEND 2" {
		t.Fatalf("capped SCAN = %q", got)
	}
	if got, _ := s.exec(h, "SCAN 100 200 5"); got != "END 0" {
		t.Fatalf("empty SCAN = %q", got)
	}
	if s.lat.tcpScan.Snapshot().Total() == 0 {
		t.Fatal("SCAN traffic left no tcp_scan latency series")
	}
}

// TestScanHTTP covers GET /kv?from=&to=&limit=: the JSON document shape,
// ascending order, defaults, the truncation flag, parameter validation,
// the method gate, and the (http, scan) latency series.
func TestScanHTTP(t *testing.T) {
	s, h := newTestServer()
	defer h.Close()
	for _, k := range []int{7, 1, 5, 3, 10} {
		s.exec(h, fmt.Sprintf("SET %d v%d", k, k))
	}
	mux := s.statsMux()
	type scanDoc struct {
		Count       int    `json:"count"`
		Truncated   bool   `json:"truncated"`
		Consistency string `json:"consistency"`
		Pairs       []struct {
			Key   int64  `json:"key"`
			Value string `json:"value"`
		} `json:"pairs"`
	}
	scan := func(query string) scanDoc {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/kv"+query, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /kv%s: status %d\n%s", query, rec.Code, rec.Body)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "json") {
			t.Fatalf("GET /kv%s: Content-Type %q", query, ct)
		}
		var doc scanDoc
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("GET /kv%s: bad JSON: %v", query, err)
		}
		return doc
	}

	doc := scan("?from=1&to=10")
	if doc.Count != 4 || doc.Truncated || doc.Consistency != "weakly_consistent" || len(doc.Pairs) != 4 {
		t.Fatalf("scan [1,10): %+v", doc)
	}
	for i, want := range []int64{1, 3, 5, 7} {
		if doc.Pairs[i].Key != want || doc.Pairs[i].Value != fmt.Sprintf("v%d", want) {
			t.Fatalf("scan [1,10) pair %d = %+v, want key %d", i, doc.Pairs[i], want)
		}
	}
	if doc = scan(""); doc.Count != 5 || doc.Truncated {
		t.Fatalf("unbounded scan: %+v", doc)
	}
	if doc = scan("?limit=2"); doc.Count != 2 || !doc.Truncated || doc.Pairs[1].Key != 3 {
		t.Fatalf("truncated scan: %+v", doc)
	}
	if doc = scan("?from=100&to=200"); doc.Count != 0 || doc.Pairs == nil || len(doc.Pairs) != 0 {
		t.Fatalf("empty scan: %+v", doc)
	}

	for _, q := range []string{"?from=x", "?to=x", "?limit=x", "?limit=0", "?limit=-1"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/kv"+q, nil))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("GET /kv%s: status %d, want 400", q, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("POST", "/kv?from=0", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /kv: status %d, want 405", rec.Code)
	}
	if s.lat.httpScan.Snapshot().Total() == 0 {
		t.Fatal("scan traffic left no http_scan latency series")
	}
}

// TestScanSharded pins the forest backend's global order: keys hashed
// across 4 shards come back as one ascending stream on both faces.
func TestScanSharded(t *testing.T) {
	cfg := defaultKVConfig()
	cfg.shards = 4
	s := newServer(cfg)
	h := s.newHandle()
	defer h.Close()
	const n = 32
	for k := 0; k < n; k++ {
		if got, _ := s.exec(h, fmt.Sprintf("SET %d v%d", k, k)); got != "OK" {
			t.Fatalf("SET %d = %q", k, got)
		}
	}
	got, _ := s.exec(h, fmt.Sprintf("SCAN 0 %d %d", n, n))
	lines := strings.Split(got, "\n")
	if len(lines) != n+1 || lines[n] != fmt.Sprintf("END %d", n) {
		t.Fatalf("sharded SCAN: %d lines, last %q", len(lines), lines[len(lines)-1])
	}
	for k := 0; k < n; k++ {
		if want := fmt.Sprintf("KEY %d v%d", k, k); lines[k] != want {
			t.Fatalf("sharded SCAN line %d = %q, want %q", k, lines[k], want)
		}
	}
}

func TestValuesWithSpaces(t *testing.T) {
	s, h := newTestServer()
	defer h.Close()
	if got, _ := s.exec(h, "SET 9 a b c"); got != "OK" {
		t.Fatalf("SET = %q", got)
	}
	got, _ := s.exec(h, "GET 9")
	if !strings.HasPrefix(got, "VALUE ") || got != "VALUE a b c" {
		t.Fatalf("GET 9 = %q", got)
	}
}
