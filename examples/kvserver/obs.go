package main

import (
	"net/http"
	"strconv"
	"time"

	"github.com/go-citrus/citrus/citrusstat"
	"github.com/go-citrus/citrus/citrusstat/promtext"
)

// reqLatencies is the server's request-side latency accounting: one
// lock-free citrusstat histogram per (face, op), where face is the
// protocol the request arrived on ("tcp" line protocol or "http"
// /kv/{key}) and op the verb. Recording is two atomic adds on the
// request path; snapshots feed /metrics.prom as full cumulative
// Prometheus histograms.
type reqLatencies struct {
	tcpSet, tcpGet, tcpDel, tcpLen, tcpScan citrusstat.Histogram
	httpGet, httpPut, httpDelete, httpOther citrusstat.Histogram
	httpScan                                citrusstat.Histogram
}

// hist maps (face, op) to its histogram, nil for untracked pairs.
func (l *reqLatencies) hist(face, op string) *citrusstat.Histogram {
	switch face {
	case "tcp":
		switch op {
		case "SET":
			return &l.tcpSet
		case "GET":
			return &l.tcpGet
		case "DEL":
			return &l.tcpDel
		case "LEN":
			return &l.tcpLen
		case "SCAN":
			return &l.tcpScan
		}
	case "http":
		switch op {
		// The range-scan endpoint records under the explicit "SCAN" op so
		// wide scans don't skew the point-GET distribution.
		case "SCAN":
			return &l.httpScan
		case http.MethodGet:
			return &l.httpGet
		case http.MethodPut, http.MethodPost:
			return &l.httpPut
		case http.MethodDelete:
			return &l.httpDelete
		default:
			return &l.httpOther
		}
	}
	return nil
}

// record adds one completed request's duration.
func (l *reqLatencies) record(face, op string, start time.Time) {
	if h := l.hist(face, op); h != nil {
		h.Record(time.Since(start))
	}
}

// reqSeries is the fixed enumeration of tracked (face, op) series, in
// exposition order.
func (l *reqLatencies) series() []struct {
	face, op string
	h        *citrusstat.Histogram
} {
	return []struct {
		face, op string
		h        *citrusstat.Histogram
	}{
		{"tcp", "set", &l.tcpSet},
		{"tcp", "get", &l.tcpGet},
		{"tcp", "del", &l.tcpDel},
		{"tcp", "len", &l.tcpLen},
		{"tcp", "scan", &l.tcpScan},
		{"http", "get", &l.httpGet},
		{"http", "put", &l.httpPut},
		{"http", "delete", &l.httpDelete},
		{"http", "scan", &l.httpScan},
		{"http", "other", &l.httpOther},
	}
}

// servePromMetrics renders the server's one metrics surface in the
// Prometheus text exposition format (0.0.4) at /metrics.prom:
//
//   - kvserver_* — the server's own request counters, shed/timeout/
//     stall counters promoted to first-class series, the per-op
//     request latency histograms (citrusstat's log2 buckets mapped to
//     cumulative `_bucket`/`_sum`/`_count`, bounds in seconds), and,
//     on a durable server, the WAL, snapshot and recovery series;
//   - citrus_* — per-shard tree and RCU series, one sample per shard
//     under a shard="i" label.
//
// A scrape reads counters only: it never walks the store. The payload
// is strict-parser clean (citrusstat/promtext.Parse); the CI smoke job
// and the httptest coverage both round-trip it.
func (s *server) servePromMetrics(w http.ResponseWriter, r *http.Request) {
	e := promtext.NewEncoder()
	fs := s.forest.Stats()
	// Inserts − Deletes per shard is the resident key count, exact while
	// no update is running, without the full walk Len would take.
	var keys int64
	for _, t := range fs.Shards {
		keys += t.Inserts - t.Deletes
	}

	// Server-level series.
	e.Counter("kvserver_ops_total", "Requests handled across both faces.", float64(s.ops.Load()))
	e.Counter("kvserver_connections_total", "TCP connections accepted.", float64(s.conns.Load()))
	e.Counter("kvserver_shed_writes_total", "Writes rejected while degraded (TCP BUSY or HTTP 503).", float64(s.shedWrites.Load()))
	e.Counter("kvserver_gp_timeouts_total", "Deletes whose grace-period wait hit the per-op deadline.", float64(s.gpTimeouts.Load()))
	e.Counter("kvserver_stall_reports_total", "RCU stall-detector reports fired.", float64(s.stallReports.Load()))
	e.Gauge("kvserver_keys", "Keys resident in the store.", float64(keys))
	e.Gauge("kvserver_shards", "Configured shard count.", float64(s.cfg.shards))
	// Info-metric idiom: constant 1 carrying the configured RCU flavor
	// as a label, so dashboards comparing flavors can join on it.
	e.Gauge("kvserver_rcu_flavor_info", "Configured RCU reclamation flavor (label carries the name).", 1,
		promtext.L("flavor", s.cfg.flavorName()))
	deg, _ := s.degraded()
	degVal := 0.0
	if deg {
		degVal = 1
	}
	e.Gauge("kvserver_degraded", "1 while the server is shedding writes.", degVal)

	for _, sr := range s.lat.series() {
		e.Histogram("kvserver_request_seconds",
			"Request latency by protocol face and operation.",
			sr.h.Snapshot(),
			promtext.L("face", sr.face), promtext.L("op", sr.op))
	}

	// Durability series, present only when the store runs with -wal-dir.
	// kvserver_recovery_* describe the LAST boot's recovery (gauges that
	// never move after startup — scrape once after a restart to audit
	// what the crash cost); kvserver_wal_* and kvserver_snapshot_* are
	// live.
	if d := s.durable; d != nil {
		ws := d.log.Stats()
		e.Counter("kvserver_wal_appends_total", "Records appended to the write-ahead log.", float64(ws.Appends))
		e.Counter("kvserver_wal_appended_bytes_total", "Bytes framed into the write-ahead log.", float64(ws.AppendedBytes))
		e.Counter("kvserver_wal_fsyncs_total", "WAL fsyncs issued (group commit batches many appends per fsync).", float64(ws.Fsyncs))
		e.Counter("kvserver_wal_segments_rolled_total", "WAL segments sealed and rolled.", float64(ws.SegmentsRolled))
		e.Counter("kvserver_wal_segments_removed_total", "WAL segments truncated behind durable snapshots.", float64(ws.SegmentsRemoved))
		e.Gauge("kvserver_wal_segments", "WAL segment files on disk.", float64(ws.Segments))
		e.Gauge("kvserver_wal_tail_lsn", "Last assigned log sequence number.", float64(ws.TailLSN))
		e.Gauge("kvserver_wal_flushed_lsn", "Last log sequence number written to the OS (durable only after fsync).", float64(ws.FlushedLSN))
		e.Gauge("kvserver_wal_durable_lsn", "Last fsynced log sequence number.", float64(ws.DurableLSN))
		e.Gauge("kvserver_wal_pending_bytes", "Bytes buffered in user space, not yet written to the OS.", float64(ws.PendingBytes))
		e.Gauge("kvserver_wal_fsync_policy_info", "Configured fsync policy (label carries the name).", 1,
			promtext.L("policy", d.log.Policy().String()))
		e.Histogram("kvserver_wal_fsync_seconds", "WAL fsync latency — the group-commit price per durable ack.", ws.FsyncWait)

		e.Counter("kvserver_snapshots_total", "Fuzzy snapshots taken since boot.", float64(d.snapshots.Load()))
		e.Counter("kvserver_snapshot_errors_total", "Snapshot attempts that failed.", float64(d.snapErrs.Load()))
		e.Gauge("kvserver_snapshot_last_lsn", "LSN the latest installed snapshot is stamped with.", float64(d.lastSnapLSN.Load()))

		rec := d.recovery
		e.Gauge("kvserver_recovery_snapshot_lsn", "LSN of the snapshot the last boot recovered from (0 = none).", float64(rec.SnapshotLSN))
		e.Gauge("kvserver_recovery_snapshot_keys", "Keys loaded from the snapshot at the last boot.", float64(rec.SnapshotKeys))
		e.Gauge("kvserver_recovery_wal_records", "Valid WAL records on disk at the last boot, including those the snapshot already covered.", float64(rec.WALRecords))
		e.Gauge("kvserver_recovery_records_replayed", "WAL records replayed on top of the snapshot at the last boot.", float64(rec.RecordsReplayed))
		e.Gauge("kvserver_recovery_replay_sets", "Replayed records that were SETs at the last boot.", float64(rec.ReplaySets))
		e.Gauge("kvserver_recovery_replay_dels", "Replayed records that were DELs at the last boot.", float64(rec.ReplayDels))
		e.Gauge("kvserver_recovery_torn_bytes_truncated", "Bytes of torn WAL tail truncated at the last boot.", float64(rec.TornBytes))
		e.Gauge("kvserver_recovery_wal_segments", "WAL segments present at the last boot.", float64(rec.WALSegments))
		e.Gauge("kvserver_recovery_seconds", "Wall time the last boot's recovery took.", float64(rec.DurationNanos)/1e9)
	}

	// Per-shard library series. The RCU series additionally carry the
	// flavor label: they are the series whose shape depends on the
	// reclamation design (grace-period latency, reader counts), so a
	// scrape comparing -flavor runs can split on it directly.
	flavorL := promtext.L("flavor", s.cfg.flavorName())
	for i, t := range fs.Shards {
		shard := promtext.L("shard", strconv.Itoa(i))
		e.Counter("citrus_tree_contains_total", "Lookup operations.", float64(t.Contains), shard)
		e.Counter("citrus_tree_inserts_total", "Keys inserted.", float64(t.Inserts), shard)
		e.Counter("citrus_tree_insert_existing_total", "Inserts that found the key already present.", float64(t.InsertExisting), shard)
		e.Counter("citrus_tree_insert_retries_total", "Insert validation retries.", float64(t.InsertRetries), shard)
		e.Counter("citrus_tree_deletes_total", "Keys deleted.", float64(t.Deletes), shard)
		e.Counter("citrus_tree_delete_misses_total", "Deletes that found no key.", float64(t.DeleteMisses), shard)
		e.Counter("citrus_tree_delete_retries_total", "Delete validation retries.", float64(t.DeleteRetries), shard)
		e.Counter("citrus_tree_two_child_deletes_total", "Deletes that took the grace-period path (paper line 74).", float64(t.TwoChildDeletes), shard)
		e.Counter("citrus_tree_delete_timeouts_total", "Bounded deletes whose grace-period wait expired.", float64(t.DeleteTimeouts), shard)
		e.Counter("citrus_tree_scans_total", "Range/full scans started.", float64(t.Scans), shard)
		e.Counter("citrus_tree_scan_sections_total", "Read-side critical sections opened by scans (> scans when batched scans re-descend).", float64(t.ScanSections), shard)
		e.Counter("citrus_tree_scan_pairs_total", "Pairs emitted to scan callbacks.", float64(t.ScanPairs), shard)
		e.Counter("citrus_tree_scan_nodes_total", "Nodes visited by scans, emitted or not.", float64(t.ScanNodes), shard)

		if t.RCU != nil {
			rs := *t.RCU
			e.Counter("citrus_rcu_synchronizes_total", "Grace periods driven to completion.", float64(rs.Synchronizes), shard, flavorL)
			e.Counter("citrus_rcu_stalls_total", "Grace-period stall reports.", float64(rs.Stalls), shard, flavorL)
			// leads + shares + expedited == synchronizes: each call counts
			// once, under how it finished.
			e.Counter("citrus_rcu_sync_leads_total", "Synchronize calls released by a grace period they ran themselves (one part of synchronizes).", float64(rs.SyncLeads), shard, flavorL)
			e.Counter("citrus_rcu_sync_shares_total", "Synchronize calls released by a grace period another caller led (one part of synchronizes).", float64(rs.SyncShares), shard, flavorL)
			e.Counter("citrus_rcu_sync_expedited_total", "Synchronize calls whose grace period had already completed when they looked (one part of synchronizes).", float64(rs.SyncExpedited), shard, flavorL)
			e.Counter("citrus_rcu_sync_spins_total", "Busy-poll iterations of grace-period waits before their first yield.", float64(rs.SyncSpins), shard, flavorL)
			e.Counter("citrus_rcu_sync_rechecks_total", "Reader re-checks of grace-period waits after a yield or a sleep.", float64(rs.SyncRechecks), shard, flavorL)
			e.Counter("citrus_rcu_sync_yields_total", "runtime.Gosched calls by grace-period waits.", float64(rs.SyncYields), shard, flavorL)
			e.Counter("citrus_rcu_sync_sleeps_total", "Brief sleeps by grace-period waits past their yield budget.", float64(rs.SyncSleeps), shard, flavorL)
			e.Gauge("citrus_rcu_active_stalls", "Synchronize calls currently stalled past the threshold.", float64(rs.ActiveStalls), shard, flavorL)
			e.Gauge("citrus_rcu_active_syncs", "Synchronize calls currently in flight.", float64(rs.ActiveSyncs), shard, flavorL)
			e.Gauge("citrus_rcu_oldest_sync_age_seconds", "Age of the oldest in-flight grace period.", float64(rs.OldestSyncAgeNanos)/1e9, shard, flavorL)
			e.Gauge("citrus_rcu_readers", "Currently registered readers.", float64(rs.Readers), shard, flavorL)
			e.Gauge("citrus_rcu_reader_high_water", "Most readers ever registered at once.", float64(rs.ReaderHighWater), shard, flavorL)
			e.Histogram("citrus_rcu_sync_wait_seconds", "Grace-period wait distribution.", rs.SyncWait, shard, flavorL)
			e.Histogram("citrus_rcu_follower_wait_seconds", "Waits of synchronize calls on a grace period another caller led, one sample per episode.", rs.FollowerWait, shard, flavorL)
		}
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e.WriteTo(w) //nolint:errcheck // best-effort over HTTP
}
