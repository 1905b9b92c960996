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
	return s, s.store.NewHandle()
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

// TestMetricsEndpoint exercises /metrics and /debug/citrus against a
// server that has done real work, decoding the JSON and checking that
// the library's counters made it through.
func TestMetricsEndpoint(t *testing.T) {
	s, h := newTestServer()
	defer h.Close()
	s.exec(h, "SET 2 two")
	s.exec(h, "SET 1 one")
	s.exec(h, "SET 3 three")
	s.exec(h, "GET 1")
	s.exec(h, "DEL 2") // two children → one grace period

	mux := s.statsMux()
	get := func(path string) map[string]any {
		t.Helper()
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d", path, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "json") {
			t.Fatalf("GET %s: Content-Type %q", path, ct)
		}
		var m map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, rec.Body.String())
		}
		return m
	}

	// The recycling reclaimer runs its own grace periods on the store's
	// domain, so the counters settle only once it has run everything
	// deferred to it. Barrier is no fence for this: it returns before
	// the drain bumps GracePeriods. One document reads the rcu section
	// before the reclaimer section, so read a fresh one once settled.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		rc, _ := get("/metrics")["reclaimer"].(map[string]any)
		if rc != nil && rc["executed"] == rc["deferred"] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reclaimer still busy after 5s: %v", rc)
		}
	}
	m := get("/metrics")
	rc := m["reclaimer"].(map[string]any)
	srvVars, ok := m["server"].(map[string]any)
	if !ok || srvVars["ops"].(float64) != 5 || srvVars["keys"].(float64) != 2 {
		t.Fatalf("/metrics server section wrong: %v", m["server"])
	}
	tree, ok := m["tree"].(map[string]any)
	if !ok || tree["inserts"].(float64) != 3 || tree["two_child_deletes"].(float64) != 1 {
		t.Fatalf("/metrics tree section wrong: %v", m["tree"])
	}
	// Every grace period on the domain is the delete's or the
	// reclaimer's.
	wantSyncs := tree["two_child_deletes"].(float64) + rc["grace_periods"].(float64)
	rcuVars, ok := m["rcu"].(map[string]any)
	if !ok || rcuVars["synchronizes"].(float64) != wantSyncs {
		t.Fatalf("/metrics rcu section wrong: %v, want synchronizes = two_child_deletes + reclaimer grace_periods = %v (reclaimer %v)",
			m["rcu"], wantSyncs, m["reclaimer"])
	}

	d := get("/debug/citrus")
	derived, ok := d["derived"].(map[string]any)
	if !ok || derived["grace_periods"].(float64) != wantSyncs || derived["two_child_deletes"].(float64) != 1 {
		t.Fatalf("/debug/citrus derived section wrong: %v, want grace_periods = %v", d["derived"], wantSyncs)
	}
	if _, ok := d["snapshot"].(map[string]any); !ok {
		t.Fatalf("/debug/citrus missing snapshot: %v", d)
	}

	// /debug/vars serves standard expvar and must at least be valid JSON.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/vars", nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/vars: status %d", rec.Code)
	}
	var vars map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &vars); err != nil {
		t.Fatalf("/debug/vars: bad JSON: %v", err)
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

	s.store.EnableTracing()
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
	h := s.store.NewHandle()
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
	pr := s.store.(*treeStore).dom.Register()
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

// TestServerEndToEndSharded runs the full demo — listener, concurrent
// TCP clients, reply verification, invariant check — against the
// forest backend: same protocol, same replies, keys spread across
// independently reclaimed shards.
func TestServerEndToEndSharded(t *testing.T) {
	cfg := defaultKVConfig()
	cfg.shards = 4
	if err := run("127.0.0.1:0", "127.0.0.1:0", false, false, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestShardedMetrics checks the forest server's /metrics document: the
// "tree" section is the cross-shard fold, and the per-shard breakdowns
// ("shards", "reclaimers") are present with one entry per shard.
func TestShardedMetrics(t *testing.T) {
	cfg := defaultKVConfig()
	cfg.shards = 4
	s := newServer(cfg)
	h := s.store.NewHandle()
	defer h.Close()
	const n = 32
	for k := 0; k < n; k++ {
		if got, _ := s.exec(h, fmt.Sprintf("SET %d v%d", k, k)); got != "OK" {
			t.Fatalf("SET %d = %q", k, got)
		}
	}

	rec := httptest.NewRecorder()
	s.statsMux().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("/metrics: bad JSON: %v", err)
	}
	srvVars := m["server"].(map[string]any)
	if srvVars["shards"].(float64) != 4 || srvVars["keys"].(float64) != n {
		t.Fatalf("/metrics server section wrong: %v", m["server"])
	}
	tree := m["tree"].(map[string]any)
	if tree["inserts"].(float64) != n {
		t.Fatalf("/metrics tree fold wrong: %v", m["tree"])
	}
	shards, ok := m["shards"].([]any)
	if !ok || len(shards) != 4 {
		t.Fatalf("/metrics shards section wrong: %v", m["shards"])
	}
	var perShard float64
	for _, sh := range shards {
		perShard += sh.(map[string]any)["inserts"].(float64)
	}
	if perShard != n {
		t.Fatalf("per-shard inserts sum to %v, want %d", perShard, n)
	}
	if recs, ok := m["reclaimers"].([]any); !ok || len(recs) != 4 {
		t.Fatalf("/metrics reclaimers section wrong: %v", m["reclaimers"])
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
	h := s.store.NewHandle()
	defer h.Close()
	mux := s.statsMux()
	f := s.store.(*forestStore).f

	s.exec(h, "SET 1 one")

	// Park a reader in shard 3 and stall a grace period behind it.
	pr := f.Domain(3).Register()
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
		f.Domain(3).Synchronize() // blocks until the reader unparks
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
			f.Domain(i).Synchronize()
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
	if _, ok := s.lat.summaries()["tcp_scan"]; !ok {
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
	if _, ok := s.lat.summaries()["http_scan"]; !ok {
		t.Fatal("scan traffic left no http_scan latency series")
	}
}

// TestScanSharded pins the forest backend's global order: keys hashed
// across 4 shards come back as one ascending stream on both faces.
func TestScanSharded(t *testing.T) {
	cfg := defaultKVConfig()
	cfg.shards = 4
	s := newServer(cfg)
	h := s.store.NewHandle()
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
