package main

import (
	"bufio"
	"fmt"
	"math/bits"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/go-citrus/citrus/citrusstat/promtext"
	"github.com/go-citrus/citrus/internal/snapshot"
)

// durableServer builds a WAL-backed server over dir, failing the test
// on construction (recovery) errors.
func durableServer(t *testing.T, dir string, mut func(*kvConfig)) *server {
	t.Helper()
	cfg := defaultKVConfig()
	cfg.walDir = dir
	cfg.demo = false
	if mut != nil {
		mut(&cfg)
	}
	s, err := buildServer(cfg)
	if err != nil {
		t.Fatalf("buildServer: %v", err)
	}
	return s
}

func TestDurableRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, func(c *kvConfig) { c.snapEvery = 0 }) // WAL-only recovery
	h := s.newHandle()
	for k := 0; k < 200; k++ {
		if got, _ := s.exec(h, fmt.Sprintf("SET %d v%d", k, k)); got != "OK" {
			t.Fatalf("SET %d: %q", k, got)
		}
	}
	for k := 0; k < 200; k += 2 {
		if got, _ := s.exec(h, fmt.Sprintf("DEL %d", k)); got != "OK" {
			t.Fatalf("DEL %d: %q", k, got)
		}
	}
	h.Close()
	s.close()

	s2 := durableServer(t, dir, nil)
	defer s2.close()
	rec := s2.durable.recovery
	if rec.RecordsReplayed != 300 || rec.ReplaySets != 200 || rec.ReplayDels != 100 {
		t.Fatalf("recovery summary %+v, want 300 replayed (200 sets, 100 dels)", rec)
	}
	if rec.TornBytes != 0 {
		t.Fatalf("clean shutdown reported %d torn bytes", rec.TornBytes)
	}
	h2 := s2.newHandle()
	defer h2.Close()
	for k := 0; k < 200; k++ {
		want := "NOT_FOUND"
		if k%2 == 1 {
			want = "VALUE v" + fmt.Sprint(k)
		}
		if got, _ := s2.exec(h2, fmt.Sprintf("GET %d", k)); got != want {
			t.Fatalf("after recovery GET %d = %q, want %q", k, got, want)
		}
	}
	if err := s2.forest.CheckInvariants(); err != nil {
		t.Fatalf("invariants after recovery: %v", err)
	}
}

func TestDurableRecoverySharded(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, func(c *kvConfig) { c.shards = 4; c.snapEvery = 0 })
	h := s.newHandle()
	for k := 0; k < 128; k++ {
		s.exec(h, fmt.Sprintf("SET %d v%d", k, k))
	}
	h.Close()
	s.close()

	s2 := durableServer(t, dir, func(c *kvConfig) { c.shards = 4 })
	defer s2.close()
	if n := s2.forest.Len(); n != 128 {
		t.Fatalf("forest recovered %d keys, want 128", n)
	}
	if err := s2.forest.CheckInvariants(); err != nil {
		t.Fatalf("forest invariants after recovery: %v", err)
	}
}

// TestSnapshotTruncatesWAL drives enough writes to trip the snapshot
// trigger, waits for the snapshotter, and verifies (a) the WAL was
// truncated behind the snapshot, (b) a reopen recovers from snapshot +
// suffix — not the full log.
func TestSnapshotTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, func(c *kvConfig) { c.snapEvery = 100 })
	ds := s.durable
	h := s.newHandle()
	const n = 350
	for k := 0; k < n; k++ {
		if got, _ := s.exec(h, fmt.Sprintf("SET %d v%d", k, k)); got != "OK" {
			t.Fatalf("SET %d: %q", k, got)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ds.snapshots.Load() >= 1 {
			if errs := ds.snapErrs.Load(); errs > 0 {
				t.Fatalf("snapshot errors: %d", errs)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshotter never ran; stats %+v", ds.log.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.Close()
	s.close()

	s2 := durableServer(t, dir, nil)
	defer s2.close()
	rec := s2.durable.recovery
	if rec.SnapshotLSN == 0 || rec.SnapshotKeys == 0 {
		t.Fatalf("reopen did not use the snapshot: %+v", rec)
	}
	if rec.RecordsReplayed >= n {
		t.Fatalf("replayed %d records — the full log; snapshot did not shorten recovery (%+v)", rec.RecordsReplayed, rec)
	}
	if n2 := s2.forest.Len(); n2 != n {
		t.Fatalf("recovered %d keys, want %d", n2, n)
	}
	// The snapshot's ascending keys load as a balanced tree; each
	// replayed record can add at most one level on top.
	height := s2.forest.Height()
	if bound := bits.Len64(uint64(rec.SnapshotKeys)) + int(rec.RecordsReplayed); height > bound {
		t.Fatalf("recovered tree has height %d, want ≤ ⌈log2(%d+1)⌉ + %d = %d",
			height, rec.SnapshotKeys, rec.RecordsReplayed, bound)
	}
}

// TestRecoveryAccountingAndShape restarts a server from a snapshot of
// ascending keys, at 1 and 4 shards, first with an empty WAL suffix and
// then with one. Recovery grafts the snapshot, so the tree's counters
// must count its keys as inserts: kvserver_keys (inserts − deletes)
// equals the forest's key count, and the inserts are the snapshot's
// keys plus the replayed SETs that took effect. With an empty suffix
// every shard is exactly as high as its key count allows: each shard's
// n keys share one bit length L, ⌈log2(n+1)⌉, and no shard of n keys is
// lower than that, so the tallest shard at L puts every shard at L.
func TestRecoveryAccountingAndShape(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const n = 12000 // at 4 shards, every share is far inside [2^11, 2^12)
			dir := t.TempDir()
			file, keys, err := snapshot.Write(dir, 0, func(emit func(int64, string) error) error {
				for k := int64(0); k < n; k++ {
					if err := emit(k, fmt.Sprintf("v%d", k)); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := snapshot.Publish(dir, file, 0, keys); err != nil {
				t.Fatal(err)
			}
			cfg := func(c *kvConfig) { c.shards = shards; c.snapEvery = 0 }

			s := durableServer(t, dir, cfg)
			m := checkRecoveryAccounting(t, s, n, 0)
			bitLen := map[int]bool{}
			for _, sm := range m["citrus_tree_inserts_total"].Samples {
				bitLen[bits.Len64(uint64(sm.Value))] = true
			}
			if len(bitLen) != 1 {
				t.Fatalf("shard key counts of different bit lengths %v; the height check needs one", bitLen)
			}
			for l := range bitLen {
				if h := s.forest.Height(); h != l {
					t.Fatalf("tallest shard is %d high, want exactly %d", h, l)
				}
			}

			// The suffix: new keys, deletes of snapshot keys (the middle
			// one is the root, a two-child delete), a deleted key set
			// again, and two writes that change nothing and log nothing.
			h := s.newHandle()
			sets := 0
			for _, line := range []string{
				"SET 20000 a", "SET 20001 b", "SET -1 c",
				"DEL 6000", "DEL 0", "DEL 11999", "DEL 3001",
				"SET 6000 again", "SET 5 exists", "DEL 99999",
			} {
				got, _ := s.exec(h, line)
				if strings.HasPrefix(line, "SET") && got == "OK" {
					sets++
				}
			}
			h.Close()
			s.close()

			s2 := durableServer(t, dir, cfg)
			defer s2.close()
			rec := s2.durable.recovery
			if rec.SnapshotKeys != n || rec.ReplaySets != int64(sets) || rec.ReplayDels != 4 {
				t.Fatalf("recovery %+v, want %d snapshot keys, %d sets and 4 dels replayed", rec, n, sets)
			}
			checkRecoveryAccounting(t, s2, n, sets)
			if got := s2.forest.Len(); got != n+3-4+1 {
				t.Fatalf("recovered %d keys, want %d", got, n+3-4+1)
			}
		})
	}
}

// checkRecoveryAccounting checks a recovered server's counters against
// its forest: kvserver_keys is the forest's key count, the inserts are
// the snapshot's keys plus the sets that took effect on replay, and
// the forest's invariants, the routing check included, hold. It
// returns the scrape.
func checkRecoveryAccounting(t *testing.T, s *server, snapKeys, sets int) promtext.Metrics {
	t.Helper()
	m := promScrape(t, s)
	if v, n := m["kvserver_keys"].Samples[0].Value, s.forest.Len(); v != float64(n) {
		t.Fatalf("kvserver_keys = %v, the forest holds %d", v, n)
	}
	var inserts float64
	for _, sm := range m["citrus_tree_inserts_total"].Samples {
		inserts += sm.Value
	}
	if want := float64(snapKeys + sets); inserts != want {
		t.Fatalf("citrus_tree_inserts_total sums to %v, want %v snapshot keys + %d replayed sets", inserts, snapKeys, sets)
	}
	if err := s.forest.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFailedPublishKeepsWAL makes every snapshot fail at Publish (a
// directory squats on the MANIFEST's temp name, so creating it fails).
// The snapshotter must count the failure and leave the WAL history
// whole: a reopen finds no snapshot and replays every record.
func TestFailedPublishKeepsWAL(t *testing.T) {
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "MANIFEST.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	s := durableServer(t, dir, func(c *kvConfig) { c.snapEvery = 100 })
	ds := s.durable
	h := s.newHandle()
	const n = 250
	for k := 0; k < n; k++ {
		if got, _ := s.exec(h, fmt.Sprintf("SET %d v%d", k, k)); got != "OK" {
			t.Fatalf("SET %d: %q", k, got)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		snaps, errs := ds.snapshots.Load(), ds.snapErrs.Load()
		if snaps > 0 {
			t.Fatalf("a snapshot published through a blocked manifest (%d published)", snaps)
		}
		if errs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("snapshotter never reported the failed publish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.Close()
	s.close()

	s2 := durableServer(t, dir, nil)
	defer s2.close()
	rec := s2.durable.recovery
	if rec.SnapshotLSN != 0 || rec.RecordsReplayed != n {
		t.Fatalf("reopen after failed publishes: %+v, want no snapshot and all %d records replayed", rec, n)
	}
	if n2 := s2.forest.Len(); n2 != n {
		t.Fatalf("recovered %d keys, want %d", n2, n)
	}
}

// TestDurableConcurrentWriters checks the stripe-lock invariant end to
// end: concurrent writers on disjoint key ranges, all acked writes
// must survive a clean close + recovery. Run with -race this also
// exercises the apply/append/ack path for data races.
func TestDurableConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, func(c *kvConfig) { c.snapEvery = 150 })
	const workers, perWorker = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := s.newHandle()
			defer h.Close()
			base := int64(w * 10000)
			for i := int64(0); i < perWorker; i++ {
				if !h.Insert(base+i, fmt.Sprintf("w%d-%d", w, i)) {
					t.Errorf("insert %d failed", base+i)
					return
				}
			}
			// Delete every third key; deletes are effective and logged.
			for i := int64(0); i < perWorker; i += 3 {
				h.DeleteWithin(base+i, 0) //nolint:errcheck // no bound, no error
			}
		}(w)
	}
	wg.Wait()
	s.close()

	s2 := durableServer(t, dir, nil)
	defer s2.close()
	h := s2.newHandle()
	defer h.Close()
	for w := 0; w < workers; w++ {
		base := int64(w * 10000)
		for i := int64(0); i < perWorker; i++ {
			v, ok := h.Get(base + i)
			if i%3 == 0 {
				if ok {
					t.Fatalf("deleted key %d recovered as %q", base+i, v)
				}
			} else if !ok || v != fmt.Sprintf("w%d-%d", w, i) {
				t.Fatalf("key %d: (%q, %v)", base+i, v, ok)
			}
		}
	}
}

// TestSIGTERMRightAfterReady sends SIGTERM the moment runNotify reports
// its listeners ready. The handler must already be installed by then,
// so the server drains and returns nil instead of losing the signal.
func TestSIGTERMRightAfterReady(t *testing.T) {
	// Keep the test binary alive if the signal beats the server's
	// handler: this test then fails instead of the process dying.
	sink := make(chan os.Signal, 1)
	signal.Notify(sink, syscall.SIGTERM)
	defer signal.Stop(sink)

	cfg := defaultKVConfig()
	cfg.demo = false
	ready := make(chan runInfo, 1)
	done := make(chan error, 1)
	go func() { done <- runNotify("127.0.0.1:0", "", true, false, cfg, ready) }()
	select {
	case <-ready:
	case err := <-done:
		t.Fatalf("runNotify returned before ready: %v", err)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runNotify returned %v after SIGTERM", err)
		}
	case <-time.After(2 * time.Second):
		// The signal was lost. Send another so the server does not
		// outlive the test.
		syscall.Kill(os.Getpid(), syscall.SIGTERM) //nolint:errcheck // best-effort cleanup of a failed run
		<-done
		t.Fatal("runNotify still serving 2s after a SIGTERM sent right after ready")
	}
}

// TestDrainUnderLoadFlushesWAL pins the SIGTERM drain-ordering fix:
// writers hammer the TCP face when SIGTERM lands with a short drain
// budget, so the drain times out with connections open. The fixed path
// force-closes their sockets, WAITS for the handlers, and only then
// closes the WAL — so run() must return cleanly (the old path raced
// live handlers against store close) and every acknowledged write must
// be recoverable from the WAL directory.
func TestDrainUnderLoadFlushesWAL(t *testing.T) {
	// Keep the test binary alive if the SIGTERM we send ourselves ever
	// beats runNotify's handler: this test then fails instead of the
	// process dying (TestSIGTERMRightAfterReady pins the handler order).
	sink := make(chan os.Signal, 1)
	signal.Notify(sink, syscall.SIGTERM)
	defer signal.Stop(sink)

	dir := t.TempDir()
	cfg := defaultKVConfig()
	cfg.walDir = dir
	cfg.demo = false
	cfg.drainTimeout = 100 * time.Millisecond
	ready := make(chan runInfo, 1)
	done := make(chan error, 1)
	go func() { done <- runNotify("127.0.0.1:0", "", true, false, cfg, ready) }()
	info := <-ready

	const workers = 4
	acked := make([][]int64, workers)
	var ackedCount atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", info.tcpAddr)
			if err != nil {
				t.Errorf("worker %d: dial: %v", w, err)
				return
			}
			defer conn.Close()
			rd := bufio.NewReader(conn)
			for i := int64(0); ; i++ {
				select {
				case <-stop:
					// Keep the connection OPEN and idle so the drain has a
					// straggler to force-close.
					<-time.After(5 * time.Second)
					return
				default:
				}
				key := int64(w)*1_000_000 + i
				if _, err := fmt.Fprintf(conn, "SET %d drain-%d\n", key, key); err != nil {
					return
				}
				line, err := rd.ReadString('\n')
				if err != nil {
					return
				}
				if strings.TrimSpace(line) == "OK" {
					acked[w] = append(acked[w], key)
					ackedCount.Add(1)
				}
			}
		}(w)
	}

	// Let the writers make progress, then pull the trigger mid-churn.
	for waited := 0; ackedCount.Load() < 50 && waited < 200; waited++ {
		time.Sleep(10 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned error after drain: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down after SIGTERM")
	}
	close(stop)
	wg.Wait()

	// Every acknowledged write must be recoverable from the WAL dir.
	s2 := durableServer(t, dir, nil)
	defer s2.close()
	h := s2.newHandle()
	defer h.Close()
	total := 0
	for w := range acked {
		for _, key := range acked[w] {
			if _, ok := h.Get(key); !ok {
				t.Fatalf("acknowledged key %d lost across drain", key)
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("no writes were acknowledged; the test exercised nothing")
	}
	t.Logf("drain preserved all %d acknowledged writes", total)
}

// TestDurablePromSeries asserts the durability series the crash
// harness scrapes are present and strict-parser clean.
func TestDurablePromSeries(t *testing.T) {
	dir := t.TempDir()
	s := durableServer(t, dir, nil)
	h := s.newHandle()
	for k := 0; k < 32; k++ {
		s.exec(h, fmt.Sprintf("SET %d v%d", k, k))
	}
	h.Close()
	s.close()

	// Reopen so the recovery series describe a real recovery.
	s2 := durableServer(t, dir, nil)
	defer s2.close()
	m := promScrape(t, s2)
	for _, name := range []string{
		"kvserver_wal_appends_total",
		"kvserver_wal_fsyncs_total",
		"kvserver_wal_tail_lsn",
		"kvserver_wal_flushed_lsn",
		"kvserver_wal_durable_lsn",
		"kvserver_wal_fsync_policy_info",
		"kvserver_wal_fsync_seconds",
		"kvserver_snapshots_total",
		"kvserver_recovery_snapshot_lsn",
		"kvserver_recovery_wal_records",
		"kvserver_recovery_records_replayed",
		"kvserver_recovery_replay_sets",
		"kvserver_recovery_replay_dels",
		"kvserver_recovery_torn_bytes_truncated",
		"kvserver_recovery_seconds",
	} {
		if _, ok := m[name]; !ok {
			t.Errorf("/metrics.prom missing %s", name)
		}
	}
	for name, want := range map[string]float64{
		"kvserver_recovery_wal_records":      32,
		"kvserver_recovery_records_replayed": 32,
		"kvserver_recovery_replay_sets":      32,
		"kvserver_recovery_replay_dels":      0,
	} {
		if v := m[name].Samples[0].Value; v != want {
			t.Fatalf("%s = %v, want %v", name, v, want)
		}
	}
	// In-memory servers must NOT emit the durability series.
	mem := newServer(defaultKVConfig())
	defer mem.close()
	m2 := promScrape(t, mem)
	if _, ok := m2["kvserver_wal_appends_total"]; ok {
		t.Fatal("in-memory server emitted kvserver_wal_* series")
	}
}

// TestDurableFsyncPolicies runs the write path under each policy; the
// nofsync alias must map to none and still serve correctly (its data
// loss only shows under SIGKILL, which the crash harness covers).
func TestDurableFsyncPolicies(t *testing.T) {
	for _, pol := range []string{"always", "group", "none", "nofsync"} {
		t.Run(pol, func(t *testing.T) {
			dir := t.TempDir()
			s := durableServer(t, dir, func(c *kvConfig) { c.fsync = pol })
			h := s.newHandle()
			for k := 0; k < 50; k++ {
				if got, _ := s.exec(h, fmt.Sprintf("SET %d p%d", k, k)); got != "OK" {
					t.Fatalf("SET %d under %s: %q", k, pol, got)
				}
			}
			h.Close()
			s.close() // clean close flushes even under none

			s2 := durableServer(t, dir, nil)
			defer s2.close()
			if n := s2.forest.Len(); n != 50 {
				t.Fatalf("policy %s: recovered %d keys, want 50", pol, n)
			}
		})
	}
}

func TestBuildServerRejectsBadFsync(t *testing.T) {
	cfg := defaultKVConfig()
	cfg.walDir = t.TempDir()
	cfg.fsync = "sometimes"
	if _, err := buildServer(cfg); err == nil {
		t.Fatal("buildServer accepted -fsync sometimes")
	}
}

func TestBuildServerRejectsBadFlavor(t *testing.T) {
	cfg := defaultKVConfig()
	cfg.flavor = "bogus"
	if _, err := buildServer(cfg); err == nil {
		t.Fatal("buildServer accepted -flavor bogus")
	}
}
