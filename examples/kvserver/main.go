// kvserver: a TCP key-value store backed by a citrus.Forest that
// hash-partitions the key space across -shards N independent Citrus
// trees, each with its own RCU domain. The default, one shard, is
// exactly one Citrus tree. Deleted nodes are left to the garbage
// collector. More shards bound the blast radius of a stalled reader: a
// reader stuck in one shard's critical section stalls that shard's
// grace periods while the other shards' keep completing, so /healthz
// and the write-shedding policy (which aggregate across shards)
// describe the whole forest honestly.
//
// The server speaks a line protocol on 127.0.0.1:7170 (configurable):
//
//	SET <key> <value>   → OK | EXISTS
//	GET <key>           → VALUE <value> | NOT_FOUND
//	DEL <key>           → OK | NOT_FOUND
//	SCAN <lo> <hi> <n>  → KEY <key> <value> per pair with lo ≤ key < hi,
//	                      ascending, at most n (capped at 1000), then
//	                      END <count>; weakly consistent (see below)
//	LEN                 → LEN <n>        (quiescent use only)
//	QUIT                → BYE
//
// Verbs are case-insensitive. A request ends at "\n" or "\r\n", and
// every reply line ends at "\n". A request line may be at most 65536
// bytes, its line ending included: a longer one is answered
// "ERR line too long (max 65536 bytes)" and the connection is closed,
// because the rest of that line cannot be told apart from the requests
// behind it. Each reply leaves in one write once it is complete. A SET
// whose value is not valid UTF-8 is answered ERR and stores nothing,
// because the HTTP face's JSON scan could not return it as stored.
//
// Every connection is served by its own goroutine with its own tree
// handle, so GETs from all connections proceed wait-free while SETs and
// DELs from different connections update the tree concurrently — the
// exact service shape (read-mostly, point lookups) that Citrus targets.
//
// Alongside the TCP port the server exposes the library's runtime
// observability layer — and an HTTP face of the store — over HTTP
// (-http, default 127.0.0.1:7171):
//
//	/kv/{key}      → GET / PUT / DELETE the key over HTTP, with
//	                 per-request deadlines (-optimeout); writes are shed
//	                 with 503 + Retry-After while the server is degraded.
//	                 PUT answers 413 for a body over 1 MiB and 400 for a
//	                 value holding "\n" or "\r", which the TCP face
//	                 could not answer on one line, or for a value that
//	                 is not valid UTF-8; none of these stores anything
//	/kv?from=&to=&limit=
//	               → GET range scan over [from, to): a JSON document of
//	                 pairs in ascending key order, at most limit
//	                 (default 100, capped at 1000, "truncated" flags the
//	                 cut). The scan is weakly consistent — keys present
//	                 throughout appear exactly once, in order; keys
//	                 updated concurrently may or may not appear — and,
//	                 like every read, it serves while degraded
//	/healthz       → 200 while healthy, 503 with a JSON reason list
//	                 while degraded (a grace period stalled past -stall)
//	/metrics.prom  → every metric the server keeps, in the Prometheus
//	                 text format: request latency histograms, server
//	                 counters, WAL and recovery series, and per shard the
//	                 tree counters and RCU grace-period stats
//	/debug/trace   → citrustrace flight-recorder dump when tracing is on
//	                 (-trace); ?format=chrome serves the Chrome
//	                 trace_event form for chrome://tracing / Perfetto
//	/debug/pprof/  → standard net/http/pprof: CPU and heap profiles,
//	                 goroutine dumps (each in-flight TCP command labeled
//	                 op=SET/GET/DEL/SCAN/LEN/QUIT, or op=OTHER for any
//	                 other verb), mutex and block profiles when
//	                 enabled via -mutexprofilefraction/-blockprofilerate,
//	                 and the runtime execution tracer (/debug/pprof/trace),
//	                 in which RCU grace periods appear as
//	                 "rcu.synchronize" regions
//
// Graceful degradation: the RCU stall detector (-stall) watches every
// grace period, so a reader stuck in a critical section turns into a
// 503-shedding, read-only-but-alive server instead of a hung one: GETs
// — wait-free by construction — keep working, SET/DEL are shed (TCP
// "BUSY", HTTP 503 + Retry-After), /healthz flips to 503, and DELs that
// do run bound their grace-period wait with -optimeout, finishing
// cleanup in the background on expiry. With -serve, SIGTERM/SIGINT drains: the
// listeners close, in-flight connections get -drain to finish, and the
// write-ahead log, when there is one, is flushed and closed before exit.
//
// Run `go run ./examples/kvserver` to start the server, load it with a
// built-in concurrent demo client, print stats, and exit. Use -serve to
// keep it running for external clients (`nc 127.0.0.1 7170`).
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	httppprof "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	rpprof "runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unicode/utf8"

	citrus "github.com/go-citrus/citrus"
	"github.com/go-citrus/citrus/internal/wal"
	"github.com/go-citrus/citrus/rcu"
)

// kvConfig carries the robustness knobs from flags into the server.
type kvConfig struct {
	shards       int           // forest shard count; 1 = single tree
	flavor       string        // RCU flavor name: scalable (default), classic, or ebr
	opTimeout    time.Duration // per-write grace-period deadline (0 = unbounded)
	stallTimeout time.Duration // RCU stall-detector threshold (0 = off)
	drainTimeout time.Duration // how long shutdown waits for open connections

	// Durability (empty walDir = in-memory only, the pre-WAL behavior).
	walDir    string // WAL + snapshot directory; enables crash durability
	fsync     string // WAL fsync policy: always, group (default), or none
	snapEvery int    // fuzzy snapshot every N logged writes (0 = never)

	// demo runs the built-in load/verify pass in run() before serving.
	// The crash-torture harness starts the server with -demo=false: the
	// demo's 1600 writes would need their own durability bookkeeping,
	// and the harness brings its own oracle-tracked workload.
	demo bool
}

// flavorName normalizes the configured flavor for display and metric
// labels: a zero-value config (tests build kvConfig literals) means the
// default scalable domain.
func (c kvConfig) flavorName() string {
	if c.flavor == "" {
		return "scalable"
	}
	return c.flavor
}

// maxScanResults caps every scan's result count, whatever the client
// asked for. Scans traverse inside RCU read-side critical sections
// (one per shard for the forest) and buffer their results before a
// byte goes to the client, so the cap bounds both the read-side dwell
// — long critical sections delay grace periods — and the per-request
// memory. Clients page with the last
// key returned.
const maxScanResults = 1000

func defaultKVConfig() kvConfig {
	return kvConfig{
		shards:       1,
		flavor:       "scalable",
		opTimeout:    2 * time.Second,
		stallTimeout: 250 * time.Millisecond,
		drainTimeout: 5 * time.Second,
		fsync:        "group",
		snapEvery:    10000,
		demo:         true,
	}
}

type server struct {
	forest  *citrus.Forest[int64, string]
	durable *durableStore // nil unless -wal-dir is set
	cfg     kvConfig
	ops     atomic.Int64
	conns   atomic.Int64

	// Degradation accounting, surfaced in /metrics.prom and /healthz.
	shedWrites   atomic.Int64 // SET/DEL rejected while degraded
	gpTimeouts   atomic.Int64 // DELs whose grace-period wait hit the deadline
	stallReports atomic.Int64 // stall-detector reports logged

	// Request latency histograms per (face, op), surfaced as cumulative
	// histograms in /metrics.prom.
	lat reqLatencies
}

// newServer builds a server, panicking on construction errors — the
// shape the in-memory-only tests use. Durability errors (bad fsync
// name, corrupt WAL/snapshot) are real runtime failures, so any caller
// that sets walDir should use buildServer and handle the error.
func newServer(cfg kvConfig) *server {
	s, err := buildServer(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func buildServer(cfg kvConfig) (*server, error) {
	s := &server{cfg: cfg}
	f, err := newForest(cfg, func(shard int, r rcu.StallReport) {
		s.stallReports.Add(1)
		log.Printf("kvserver: shard %d: %v", shard, r)
	})
	if err != nil {
		return nil, err
	}
	s.forest = f
	if cfg.walDir != "" {
		if s.durable, err = newDurableStore(f, cfg); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// newHandle returns one connection's view of the store: a forest
// handle, whose writes are logged when the server is durable.
func (s *server) newHandle() storeHandle {
	h := s.forest.NewHandle()
	if s.durable == nil {
		return h
	}
	return &durableHandle{ForestHandle: h, d: s.durable}
}

// close flushes and closes the WAL, when there is one. Every handle
// must be closed first.
func (s *server) close() {
	if s.durable != nil {
		s.durable.Close()
	}
}

// degraded reports whether the server is shedding writes, with a
// human-readable reason: a grace-period wait stalled past the detector
// threshold (a reader stuck in its critical section). The probe
// aggregates across every shard — the router is hash-based, so any
// write may land on the sick shard.
func (s *server) degraded() (bool, []string) {
	if n := s.activeStalls(); n > 0 {
		return true, []string{fmt.Sprintf("%d grace-period wait(s) stalled past %v", n, s.cfg.stallTimeout)}
	}
	return false, nil
}

// activeStalls sums the grace-period waits stalled past the detector
// threshold on every shard.
func (s *server) activeStalls() int64 {
	var n int64
	for i := 0; i < s.forest.NumShards(); i++ {
		n += flavorStats(s.forest.Flavor(i)).ActiveStalls
	}
	return n
}

// writeCtx returns the context bounding one write's grace-period wait.
func (s *server) writeCtx() (context.Context, context.CancelFunc) {
	if s.cfg.opTimeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), s.cfg.opTimeout)
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7170", "listen address")
	httpAddr := flag.String("http", "127.0.0.1:7171", "HTTP address for /metrics.prom, /healthz, /kv, /debug/trace and /debug/pprof; empty disables")
	serve := flag.Bool("serve", false, "keep serving after the demo instead of exiting")
	traceOn := flag.Bool("trace", false, "enable the citrustrace flight recorder at startup (dump at /debug/trace)")
	mutexFrac := flag.Int("mutexprofilefraction", 0, "runtime.SetMutexProfileFraction: sample 1/n mutex contention events (0 disables)")
	blockRate := flag.Int("blockprofilerate", 0, "runtime.SetBlockProfileRate: sample blocking events ≥ n ns (0 disables)")
	def := defaultKVConfig()
	shards := flag.Int("shards", def.shards, "partition the key space across this many Citrus trees, each with its own RCU domain (citrus.Forest); 1 = single tree")
	flavor := flag.String("flavor", def.flavor, "RCU reclamation flavor backing every tree: scalable (per-reader counter+flag), classic (single shared counter), or ebr (epoch-based)")
	opTimeout := flag.Duration("optimeout", def.opTimeout, "per-write grace-period deadline; expired DELs finish cleanup in the background (0 = unbounded)")
	stall := flag.Duration("stall", def.stallTimeout, "RCU stall-detector threshold; stalled grace periods are logged and flip /healthz to degraded (0 disables)")
	drain := flag.Duration("drain", def.drainTimeout, "how long SIGTERM/SIGINT shutdown waits for open connections before exiting")
	walDir := flag.String("wal-dir", def.walDir, "write-ahead log + snapshot directory: writes are logged and recovered on boot (empty = in-memory only)")
	fsync := flag.String("fsync", def.fsync, "WAL fsync policy: always (fsync per write), group (batched fsync, default), none (NOT crash-durable; torture negative control)")
	snapEvery := flag.Int("snapshot-every", def.snapEvery, "take a fuzzy snapshot and truncate the WAL every N logged writes (0 = never)")
	demo := flag.Bool("demo", def.demo, "run the built-in demo load before serving (-demo=false for externally driven servers)")
	flag.Parse()
	runtime.SetMutexProfileFraction(*mutexFrac)
	runtime.SetBlockProfileRate(*blockRate)
	if *shards < 1 {
		log.Fatalf("-shards must be at least 1, got %d", *shards)
	}
	if _, err := wal.ParsePolicy(*fsync); err != nil {
		log.Fatalf("-fsync: %v", err)
	}
	cfg := kvConfig{
		shards:       *shards,
		flavor:       *flavor,
		opTimeout:    *opTimeout,
		stallTimeout: *stall,
		drainTimeout: *drain,
		walDir:       *walDir,
		fsync:        *fsync,
		snapEvery:    *snapEvery,
		demo:         *demo,
	}
	if err := run(*addr, *httpAddr, *serve, *traceOn, cfg); err != nil {
		log.Fatal(err)
	}
}

// runInfo tells a runNotify caller where the listeners actually bound
// ("127.0.0.1:0" in, real ports out) once the server is accepting.
type runInfo struct {
	tcpAddr  string
	httpAddr string // empty when the HTTP face is disabled
}

func run(addr, httpAddr string, keepServing, traceOn bool, cfg kvConfig) error {
	return runNotify(addr, httpAddr, keepServing, traceOn, cfg, nil)
}

// runNotify is run with a readiness signal: once both listeners are
// accepting, their bound addresses are sent on ready (if non-nil).
// Tests use it to run the full server loop — signal handling and drain
// ordering included — against ephemeral ports.
func runNotify(addr, httpAddr string, keepServing, traceOn bool, cfg kvConfig, ready chan<- runInfo) error {
	srv, err := buildServer(cfg)
	if err != nil {
		return err
	}
	if traceOn {
		srv.forest.EnableTracing()
		log.Printf("flight recorder enabled on every shard (merged dump at /debug/trace, events tagged by shard)")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	log.Printf("kvserver listening on %s (%d shard(s), each with its own RCU domain)", ln.Addr(), cfg.shards)

	// Install the SIGTERM handler before either face can answer: a
	// client that got a reply may stop the server at once, and a
	// signal that lands before Notify kills the process instead of
	// draining it.
	var sigc chan os.Signal
	if keepServing {
		sigc = make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigc)
	}

	boundHTTP := ""
	if httpAddr != "" {
		hln, err := net.Listen("tcp", httpAddr)
		if err != nil {
			return fmt.Errorf("http listener: %w", err)
		}
		defer hln.Close()
		boundHTTP = hln.Addr().String()
		go http.Serve(hln, srv.statsMux()) //nolint:errcheck // closed with the listener
		log.Printf("stats on http://%s/metrics.prom (also /healthz, /kv, /debug/trace, /debug/pprof)", hln.Addr())
	}

	// Open connections are tracked so the drain path can force-close
	// stragglers and then WAIT for their handlers: the WAL may only be
	// flushed and closed after every goroutine that could append to it
	// has returned (see the keepServing shutdown below).
	var wg sync.WaitGroup
	var connMu sync.Mutex
	openConns := make(map[net.Conn]struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			connMu.Lock()
			openConns[conn] = struct{}{}
			connMu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					connMu.Lock()
					delete(openConns, conn)
					connMu.Unlock()
				}()
				srv.handle(conn)
			}()
		}
	}()

	if ready != nil {
		ready <- runInfo{tcpAddr: ln.Addr().String(), httpAddr: boundHTTP}
	}

	if cfg.demo {
		// Built-in demo load: concurrent clients over real TCP connections.
		if err := demo(ln.Addr().String()); err != nil {
			ln.Close()
			wg.Wait()
			return fmt.Errorf("demo client: %w", err)
		}
		log.Printf("demo done: %d ops served, %d keys resident", srv.ops.Load(), srv.forest.Len())
		if err := srv.forest.CheckInvariants(); err != nil {
			return fmt.Errorf("tree invariants: %w", err)
		}
		log.Printf("tree invariants: OK")
	}

	if keepServing {
		log.Printf("serving until interrupted (try: printf 'SET 1 hello\\nGET 1\\nQUIT\\n' | nc %s)", addr)
		sig := <-sigc
		signal.Stop(sigc)
		log.Printf("%v: draining (no new connections, up to %v for open ones)", sig, cfg.drainTimeout)
		ln.Close()
		drained := make(chan struct{})
		go func() {
			wg.Wait()
			close(drained)
		}()
		select {
		case <-drained:
		case <-time.After(cfg.drainTimeout):
			// Force-close the stragglers' sockets, then STILL wait for
			// their handlers to return. The old behavior — "abandoning"
			// the connections and closing the store under them — raced
			// live handlers against store shutdown; with a WAL attached
			// it could close the log while a handler was mid-append and
			// exit before acknowledged bytes were flushed. Every handler
			// unblocks promptly once its socket is closed (reads fail)
			// and its bounded waits expire (-optimeout, fsync).
			connMu.Lock()
			n := len(openConns)
			for c := range openConns {
				c.Close()
			}
			connMu.Unlock()
			log.Printf("drain timeout: force-closed %d open connection(s)", n)
			wg.Wait()
		}
		// Handlers are done; now the WAL, when -wal-dir is set, can
		// flush, fsync, and close.
		srv.close()
		log.Printf("drained: %d ops served", srv.ops.Load())
		return nil
	}
	ln.Close()
	wg.Wait()
	srv.close()
	return nil
}

// statsMux serves the HTTP face of the store and the observability
// endpoints.
func (s *server) statsMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.serveHealthz)
	mux.HandleFunc("/kv/", s.serveKV)
	mux.HandleFunc("/kv", s.serveScan) // exact match: the query-driven range scan
	mux.HandleFunc("/metrics.prom", s.servePromMetrics)
	mux.HandleFunc("/debug/trace", s.serveTrace)
	// net/http/pprof registers on DefaultServeMux; this server uses its
	// own mux, so route the handlers explicitly. /debug/pprof/trace is
	// the runtime execution tracer — grace-period waits show up there as
	// "rcu.synchronize" regions (go tool trace, "User-defined regions").
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

// serveHealthz is the load-balancer probe: 200 while healthy, 503 with
// the reason list while degraded. A degraded server still serves reads
// (wait-free by construction), so orchestrators that honor Retry-After
// can keep read traffic flowing while routing writes elsewhere.
func (s *server) serveHealthz(w http.ResponseWriter, r *http.Request) {
	deg, reasons := s.degraded()
	doc := map[string]any{
		"status":        "ok",
		"reasons":       reasons,
		"shards":        s.cfg.shards,
		"active_stalls": s.activeStalls(),
		"shed_writes":   s.shedWrites.Load(),
		"gp_timeouts":   s.gpTimeouts.Load(),
	}
	w.Header().Set("Content-Type", "application/json")
	if deg {
		doc["status"] = "degraded"
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc) //nolint:errcheck // best-effort over HTTP
}

// serveKV is the HTTP face of the store: GET/PUT/DELETE on /kv/{key}.
// Reads always serve; writes are shed with 503 + Retry-After while the
// server is degraded, and DELETE bounds its grace-period wait with the
// per-request deadline (a DELETE that hits the deadline HAS deleted the
// key — the remaining unlink work finishes in the background — so it
// still answers 200, with X-Citrus-GP-Timeout set).
func (s *server) serveKV(w http.ResponseWriter, r *http.Request) {
	key, err := strconv.ParseInt(strings.TrimPrefix(r.URL.Path, "/kv/"), 10, 64)
	if err != nil {
		http.Error(w, "bad key: "+err.Error(), http.StatusBadRequest)
		return
	}
	h := s.newHandle()
	defer h.Close()
	s.ops.Add(1)
	defer s.lat.record("http", r.Method, time.Now())
	shed := func() bool {
		deg, reasons := s.degraded()
		if !deg {
			return false
		}
		s.shedWrites.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "degraded: "+strings.Join(reasons, "; "), http.StatusServiceUnavailable)
		return true
	}
	switch r.Method {
	case http.MethodGet:
		v, ok := h.Get(key)
		if !ok {
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
		io.WriteString(w, v) //nolint:errcheck // best-effort over HTTP
	case http.MethodPut, http.MethodPost:
		if shed() {
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &tooLarge):
			http.Error(w, fmt.Sprintf("value longer than %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		case bytes.ContainsAny(body, "\r\n"):
			// The TCP face answers one line per value; a line break would
			// split a reply in two and shift every later one.
			http.Error(w, "value contains a line break", http.StatusBadRequest)
			return
		case !utf8.Valid(body):
			// JSON strings carry only UTF-8: the range scan would answer
			// such a value with U+FFFD where GET answers it raw.
			http.Error(w, "value is not valid UTF-8", http.StatusBadRequest)
			return
		}
		if !h.Insert(key, string(body)) {
			http.Error(w, "exists", http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusCreated)
	case http.MethodDelete:
		if shed() {
			return
		}
		ctx, cancel := s.writeCtx()
		defer cancel()
		ok, err := h.DeleteCtx(ctx, key)
		switch {
		case err != nil && ok:
			// Deleted — the key is gone — but the grace-period wait hit
			// the deadline; unlink cleanup completes in the background.
			s.gpTimeouts.Add(1)
			w.Header().Set("X-Citrus-GP-Timeout", "1")
		case err != nil:
			http.Error(w, "deadline before delete took effect: "+err.Error(), http.StatusGatewayTimeout)
			return
		case !ok:
			http.Error(w, "not found", http.StatusNotFound)
			return
		}
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// serveScan is the HTTP face of the range scan: GET /kv?from=&to=&limit=
// answers a JSON document of pairs with from ≤ key < to in ascending key
// order, at most limit of them (default 100, capped at maxScanResults;
// "truncated" reports whether the cap cut the scan short). Bounds
// default to the whole key space. Like every read it serves while the
// server is degraded, and it records its latency under the dedicated
// (http, scan) series so wide scans don't skew the point-GET histogram.
func (s *server) serveScan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	bound := func(name string, def int64) (int64, error) {
		if v := q.Get(name); v != "" {
			return strconv.ParseInt(v, 10, 64)
		}
		return def, nil
	}
	from, err := bound("from", math.MinInt64)
	if err != nil {
		http.Error(w, "bad from: "+err.Error(), http.StatusBadRequest)
		return
	}
	to, err := bound("to", math.MaxInt64)
	if err != nil {
		http.Error(w, "bad to: "+err.Error(), http.StatusBadRequest)
		return
	}
	limit := 100
	if v := q.Get("limit"); v != "" {
		limit, err = strconv.Atoi(v)
		if err != nil || limit <= 0 {
			http.Error(w, "bad limit: must be a positive integer", http.StatusBadRequest)
			return
		}
	}
	if limit > maxScanResults {
		limit = maxScanResults
	}

	h := s.newHandle()
	defer h.Close()
	s.ops.Add(1)
	defer s.lat.record("http", "SCAN", time.Now())

	type pair struct {
		Key   int64  `json:"key"`
		Value string `json:"value"`
	}
	pairs := []pair{} // non-nil: an empty scan answers "pairs": []
	// The bounded scan asks for one pair past the limit purely to learn
	// whether the cap cut anything off; the forest buffers at most
	// limit+1 pairs per shard regardless of how wide [from, to) is.
	h.RangeScanLimit(from, to, limit+1, func(k int64, v string) bool {
		pairs = append(pairs, pair{k, v})
		return true
	})
	truncated := len(pairs) > limit
	if truncated {
		pairs = pairs[:limit]
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{ //nolint:errcheck // best-effort over HTTP
		"count":       len(pairs),
		"truncated":   truncated,
		"consistency": "weakly_consistent",
		"pairs":       pairs,
	})
}

// serveTrace dumps the flight recorder: the native JSON form by
// default, the Chrome trace_event form with ?format=chrome. The dump
// merges every shard's rings onto one clock, time-ordered, each event
// tagged with its source shard (rendered as one process group per shard
// in the Chrome form).
func (s *server) serveTrace(w http.ResponseWriter, r *http.Request) {
	if s.forest.TraceRecorder(0) == nil {
		http.Error(w, "tracing disabled (start kvserver with -trace)", http.StatusNotFound)
		return
	}
	tr := s.forest.DumpTrace()
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="citrus-trace.json"`)
		tr.WriteChromeTrace(w) //nolint:errcheck // best-effort over HTTP
		return
	}
	w.Header().Set("Content-Type", "application/json")
	tr.WriteJSON(w) //nolint:errcheck // best-effort over HTTP
}

// maxKeptReply bounds the reply buffer a connection keeps between
// requests: a buffer that one reply grew past it (a wide SCAN page, a
// large value) is dropped rather than held for the connection's life.
const maxKeptReply = 64 << 10

// handle serves one connection with its own per-goroutine tree handle.
// Each reply is appended to one buffer the connection reuses and goes
// out in one write.
func (s *server) handle(conn net.Conn) {
	defer conn.Close()
	s.conns.Add(1)
	h := s.newHandle()
	defer h.Close()

	sc := bufio.NewScanner(conn)
	var buf []byte
	for sc.Scan() {
		reply, quit := s.appendReply(buf[:0], h, sc.Text())
		reply = append(reply, '\n')
		if _, err := conn.Write(reply); err != nil || quit {
			return
		}
		buf = reply
		if cap(buf) > maxKeptReply {
			buf = nil
		}
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		// The rest of the over-long line is still in the stream, and no
		// later byte can be told apart from it: answer, then close. The
		// half-close puts a FIN behind the answer, so the client reads it
		// and then EOF before the reset that closing a socket with unread
		// input sends.
		log.Printf("kvserver: %v: line longer than %d bytes; closing the connection", conn.RemoteAddr(), bufio.MaxScanTokenSize)
		fmt.Fprintf(conn, "ERR line too long (max %d bytes)\n", bufio.MaxScanTokenSize) //nolint:errcheck // closing either way
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite() //nolint:errcheck // closing either way
		}
	}
}

// opLabels holds one pprof label context per verb, built once, so
// labeling a request allocates nothing; any other verb runs as
// op=OTHER.
var opLabels = func() map[string]context.Context {
	m := make(map[string]context.Context)
	for _, op := range []string{"SET", "GET", "DEL", "SCAN", "LEN", "QUIT", "OTHER"} {
		m[op] = rpprof.WithLabels(context.Background(), rpprof.Labels("op", op))
	}
	return m
}()

// exec executes one protocol line and returns its reply.
func (s *server) exec(h storeHandle, line string) (string, bool) {
	reply, quit := s.appendReply(nil, h, line)
	return string(reply), quit
}

// appendReply executes one protocol line and appends its reply, without
// the newline, to dst. The goroutine carries an op=<verb> pprof label
// for the duration, so goroutine and CPU profiles break down by command
// type (go tool pprof -tags).
func (s *server) appendReply(dst []byte, h storeHandle, line string) ([]byte, bool) {
	s.ops.Add(1)
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return append(dst, "ERR empty command"...), false
	}
	verb := strings.ToUpper(fields[0])
	labels, ok := opLabels[verb]
	if !ok {
		labels = opLabels["OTHER"]
	}
	start := time.Now()
	rpprof.SetGoroutineLabels(labels)
	dst, quit := s.execVerb(dst, h, verb, fields)
	rpprof.SetGoroutineLabels(context.Background())
	s.lat.record("tcp", verb, start)
	return dst, quit
}

func (s *server) execVerb(dst []byte, h storeHandle, verb string, fields []string) ([]byte, bool) {
	parseKey := func() (int64, error) {
		if len(fields) < 2 {
			return 0, errors.New("missing key")
		}
		return strconv.ParseInt(fields[1], 10, 64)
	}
	// Writes are shed while degraded; reads always serve. BUSY tells the
	// client to back off and retry — the degradation is load- or
	// stall-induced and clears on its own (see /healthz for why).
	shed := func() bool {
		if deg, _ := s.degraded(); deg {
			s.shedWrites.Add(1)
			return true
		}
		return false
	}
	const busy = "BUSY degraded, retry later"
	switch verb {
	case "SET":
		key, err := parseKey()
		if err != nil || len(fields) < 3 {
			return append(dst, "ERR usage: SET <key> <value>"...), false
		}
		value := strings.Join(fields[2:], " ")
		if !utf8.ValidString(value) {
			return append(dst, "ERR value is not valid UTF-8"...), false
		}
		if shed() {
			return append(dst, busy...), false
		}
		if h.Insert(key, value) {
			return append(dst, "OK"...), false
		}
		return append(dst, "EXISTS"...), false
	case "GET":
		key, err := parseKey()
		if err != nil {
			return append(dst, "ERR usage: GET <key>"...), false
		}
		if v, ok := h.Get(key); ok {
			return append(append(dst, "VALUE "...), v...), false
		}
		return append(dst, "NOT_FOUND"...), false
	case "DEL":
		key, err := parseKey()
		if err != nil {
			return append(dst, "ERR usage: DEL <key>"...), false
		}
		if shed() {
			return append(dst, busy...), false
		}
		ctx, cancel := s.writeCtx()
		defer cancel()
		ok, derr := h.DeleteCtx(ctx, key)
		switch {
		case derr != nil && ok:
			// The delete took effect; only the grace-period wait timed
			// out, and cleanup finishes in the background. Still OK.
			s.gpTimeouts.Add(1)
			return append(dst, "OK"...), false
		case derr != nil:
			return append(dst, "TIMEOUT deadline before delete took effect"...), false
		case ok:
			return append(dst, "OK"...), false
		}
		return append(dst, "NOT_FOUND"...), false
	case "SCAN":
		// A read: never shed, like GET. The reply is multi-line — one KEY
		// line per pair, then END <count> — and is complete in the
		// connection's buffer before any byte reaches the socket, so the
		// read-side critical section never waits on the network.
		const usage = "ERR usage: SCAN <lo> <hi> <n>"
		if len(fields) != 4 {
			return append(dst, usage...), false
		}
		lo, err1 := strconv.ParseInt(fields[1], 10, 64)
		hi, err2 := strconv.ParseInt(fields[2], 10, 64)
		n, err3 := strconv.Atoi(fields[3])
		if err1 != nil || err2 != nil || err3 != nil || n <= 0 {
			return append(dst, usage...), false
		}
		if n > maxScanResults {
			n = maxScanResults
		}
		// The callback captures page, not dst, so only a SCAN moves its
		// buffer's header to the heap.
		page, count := dst, 0
		h.RangeScanLimit(lo, hi, n, func(k int64, v string) bool {
			page = append(strconv.AppendInt(append(page, "KEY "...), k, 10), ' ')
			page = append(append(page, v...), '\n')
			count++
			return true
		})
		return strconv.AppendInt(append(page, "END "...), int64(count), 10), false
	case "LEN":
		return strconv.AppendInt(append(dst, "LEN "...), int64(s.forest.Len()), 10), false
	case "QUIT":
		return append(dst, "BYE"...), true
	default:
		return append(append(dst, "ERR unknown command "...), fields[0]...), false
	}
}

// demo drives the server with concurrent clients and verifies replies.
func demo(addr string) error {
	const (
		clients    = 8
		keysPerCli = 200
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs <- client(addr, c, keysPerCli)
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// client owns keys [c*1000, c*1000+n): sets them, reads them back,
// deletes the odd ones, and checks every reply.
func client(addr string, c, n int) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	roundTrip := func(cmd, want string) error {
		if _, err := fmt.Fprintln(conn, cmd); err != nil {
			return err
		}
		line, err := rd.ReadString('\n')
		if err != nil {
			return err
		}
		if got := strings.TrimSpace(line); got != want {
			return fmt.Errorf("%q: got %q, want %q", cmd, got, want)
		}
		return nil
	}
	base := c * 1000
	for k := base; k < base+n; k++ {
		if err := roundTrip(fmt.Sprintf("SET %d v%d", k, k), "OK"); err != nil {
			return err
		}
	}
	for k := base; k < base+n; k++ {
		if err := roundTrip(fmt.Sprintf("GET %d", k), fmt.Sprintf("VALUE v%d", k)); err != nil {
			return err
		}
	}
	// SCAN this client's own window: every key it set is still present
	// and no other client writes there, so the weakly consistent scan
	// must return exactly its n keys, ascending.
	if _, err := fmt.Fprintf(conn, "SCAN %d %d %d\n", base, base+n, n); err != nil {
		return err
	}
	prev := int64(base) - 1
	for seen := 0; ; seen++ {
		line, err := rd.ReadString('\n')
		if err != nil {
			return err
		}
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "END ") {
			if line != fmt.Sprintf("END %d", n) || seen != n {
				return fmt.Errorf("SCAN: %d KEY lines then %q, want %d", seen, line, n)
			}
			break
		}
		var k int64
		var v string
		if _, err := fmt.Sscanf(line, "KEY %d %s", &k, &v); err != nil {
			return fmt.Errorf("SCAN: unexpected reply line %q", line)
		}
		if k <= prev || v != fmt.Sprintf("v%d", k) {
			return fmt.Errorf("SCAN: pair (%d, %s) after key %d", k, v, prev)
		}
		prev = k
	}
	for k := base; k < base+n; k++ {
		if k%2 == 0 {
			continue
		}
		if err := roundTrip(fmt.Sprintf("DEL %d", k), "OK"); err != nil {
			return err
		}
		if err := roundTrip(fmt.Sprintf("GET %d", k), "NOT_FOUND"); err != nil {
			return err
		}
	}
	return roundTrip("QUIT", "BYE")
}
