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
// request path; snapshots feed both the JSON /metrics document (as
// percentile summaries) and /metrics.prom (as full cumulative
// Prometheus histograms).
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

// summaries renders the JSON /metrics view of the request histograms:
// per-series count and interpolated percentiles, skipping series that
// have seen no traffic.
func (l *reqLatencies) summaries() map[string]any {
	out := map[string]any{}
	for _, s := range l.series() {
		snap := s.h.Snapshot()
		if snap.Total() == 0 {
			continue
		}
		out[s.face+"_"+s.op] = map[string]any{
			"count": snap.Total(),
			"p50":   snap.Percentile(50).String(),
			"p99":   snap.Percentile(99).String(),
			"p999":  snap.Percentile(99.9).String(),
			"mean":  snap.Mean().String(),
		}
	}
	return out
}

// servePromMetrics renders the whole observability surface in the
// Prometheus text exposition format (0.0.4) at /metrics.prom:
//
//   - kvserver_* — the server's own request counters, shed/timeout/
//     stall counters promoted to first-class series, and the per-op
//     request latency histograms (citrusstat's log2 buckets mapped to
//     cumulative `_bucket`/`_sum`/`_count`, bounds in seconds);
//   - citrus_* — per-shard tree, RCU and reclaimer series, one sample
//     per shard under a shard="i" label (shard="0" only, unsharded);
//     the reclamation queue depth/age and grace-period age gauges are
//     the age–memory trade-off signals, scrape-ready.
//
// The payload is strict-parser clean (citrusstat/promtext.Parse); the
// CI smoke job and the httptest coverage both round-trip it.
func (s *server) servePromMetrics(w http.ResponseWriter, r *http.Request) {
	e := promtext.NewEncoder()

	// Server-level series.
	e.Counter("kvserver_ops_total", "Requests handled across both faces.", float64(s.ops.Load()))
	e.Counter("kvserver_connections_total", "TCP connections accepted.", float64(s.conns.Load()))
	e.Counter("kvserver_shed_writes_total", "Writes rejected while degraded (TCP BUSY or HTTP 503).", float64(s.shedWrites.Load()))
	e.Counter("kvserver_gp_timeouts_total", "Deletes whose grace-period wait hit the per-op deadline.", float64(s.gpTimeouts.Load()))
	e.Counter("kvserver_stall_reports_total", "RCU stall-detector reports fired.", float64(s.stallReports.Load()))
	e.Gauge("kvserver_keys", "Keys resident in the store.", float64(s.store.Len()))
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
	if d, ok := s.store.(durabilityObs); ok {
		ws := d.WALStats()
		e.Counter("kvserver_wal_appends_total", "Records appended to the write-ahead log.", float64(ws.Appends))
		e.Counter("kvserver_wal_appended_bytes_total", "Bytes framed into the write-ahead log.", float64(ws.AppendedBytes))
		e.Counter("kvserver_wal_fsyncs_total", "WAL fsyncs issued (group commit batches many appends per fsync).", float64(ws.Fsyncs))
		e.Counter("kvserver_wal_segments_rolled_total", "WAL segments sealed and rolled.", float64(ws.SegmentsRolled))
		e.Counter("kvserver_wal_segments_removed_total", "WAL segments truncated behind durable snapshots.", float64(ws.SegmentsRemoved))
		e.Gauge("kvserver_wal_segments", "WAL segment files on disk.", float64(ws.Segments))
		e.Gauge("kvserver_wal_tail_lsn", "Last assigned log sequence number.", float64(ws.TailLSN))
		e.Gauge("kvserver_wal_durable_lsn", "Last fsynced log sequence number.", float64(ws.DurableLSN))
		e.Gauge("kvserver_wal_pending_bytes", "Bytes buffered in user space, not yet written to the OS.", float64(ws.PendingBytes))
		e.Gauge("kvserver_wal_fsync_policy_info", "Configured fsync policy (label carries the name).", 1,
			promtext.L("policy", d.WALPolicy()))
		e.Histogram("kvserver_wal_fsync_seconds", "WAL fsync latency — the group-commit price per durable ack.", ws.FsyncWait)

		snaps, snapErrs, lastLSN := d.SnapshotObs()
		e.Counter("kvserver_snapshots_total", "Fuzzy snapshots taken since boot.", float64(snaps))
		e.Counter("kvserver_snapshot_errors_total", "Snapshot attempts that failed.", float64(snapErrs))
		e.Gauge("kvserver_snapshot_last_lsn", "LSN the latest installed snapshot is stamped with.", float64(lastLSN))

		rec := d.RecoverySummary()
		e.Gauge("kvserver_recovery_snapshot_lsn", "LSN of the snapshot the last boot recovered from (0 = none).", float64(rec.SnapshotLSN))
		e.Gauge("kvserver_recovery_snapshot_keys", "Keys loaded from the snapshot at the last boot.", float64(rec.SnapshotKeys))
		e.Gauge("kvserver_recovery_records_replayed", "WAL records replayed on top of the snapshot at the last boot.", float64(rec.RecordsReplayed))
		e.Gauge("kvserver_recovery_torn_bytes_truncated", "Bytes of torn WAL tail truncated at the last boot.", float64(rec.TornBytes))
		e.Gauge("kvserver_recovery_wal_segments", "WAL segments present at the last boot.", float64(rec.WALSegments))
		e.Gauge("kvserver_recovery_seconds", "Wall time the last boot's recovery took.", float64(rec.DurationNanos)/1e9)
	}

	// Per-shard library series. The RCU series additionally carry the
	// flavor label: they are the series whose shape depends on the
	// reclamation design (grace-period latency, reader counts), so a
	// scrape comparing -flavor runs can split on it directly.
	flavorL := promtext.L("flavor", s.cfg.flavorName())
	for i, obs := range s.store.ShardObs() {
		shard := promtext.L("shard", strconv.Itoa(i))
		t := obs.Tree
		e.Counter("citrus_tree_contains_total", "Lookup operations.", float64(t.Contains), shard)
		e.Counter("citrus_tree_inserts_total", "Keys inserted.", float64(t.Inserts), shard)
		e.Counter("citrus_tree_insert_retries_total", "Insert validation retries.", float64(t.InsertRetries), shard)
		e.Counter("citrus_tree_deletes_total", "Keys deleted.", float64(t.Deletes), shard)
		e.Counter("citrus_tree_delete_retries_total", "Delete validation retries.", float64(t.DeleteRetries), shard)
		e.Counter("citrus_tree_two_child_deletes_total", "Deletes that took the grace-period path (paper line 74).", float64(t.TwoChildDeletes), shard)
		e.Counter("citrus_tree_delete_timeouts_total", "Bounded deletes whose grace-period wait expired.", float64(t.DeleteTimeouts), shard)
		e.Counter("citrus_tree_nodes_retired_total", "Nodes retired to the reclaimer.", float64(t.NodesRetired), shard)
		e.Counter("citrus_tree_nodes_reused_total", "Retired nodes recycled into new inserts.", float64(t.NodesReused), shard)
		e.Counter("citrus_tree_scans_total", "Range/full scans started.", float64(t.Scans), shard)
		e.Counter("citrus_tree_scan_sections_total", "Read-side critical sections opened by scans (> scans when batched scans re-descend).", float64(t.ScanSections), shard)
		e.Counter("citrus_tree_scan_pairs_total", "Pairs emitted to scan callbacks.", float64(t.ScanPairs), shard)
		e.Counter("citrus_tree_scan_nodes_total", "Nodes visited by scans, emitted or not.", float64(t.ScanNodes), shard)

		if t.RCU != nil {
			rs := *t.RCU
			e.Counter("citrus_rcu_synchronizes_total", "Grace periods driven to completion.", float64(rs.Synchronizes), shard, flavorL)
			e.Counter("citrus_rcu_stalls_total", "Grace-period stall reports.", float64(rs.Stalls), shard, flavorL)
			e.Counter("citrus_rcu_sync_abandoned_total", "Bounded synchronize calls abandoned by their caller.", float64(rs.SyncAbandoned), shard, flavorL)
			// leads + shares + expedited == synchronizes: each call counts
			// once, under how it finished.
			e.Counter("citrus_rcu_sync_leads_total", "Synchronize calls released by a grace period they ran themselves (one part of synchronizes).", float64(rs.SyncLeads), shard, flavorL)
			e.Counter("citrus_rcu_sync_shares_total", "Synchronize calls released by a grace period another caller led (one part of synchronizes).", float64(rs.SyncShares), shard, flavorL)
			e.Counter("citrus_rcu_sync_expedited_total", "Synchronize calls whose grace period had already completed when they looked (one part of synchronizes).", float64(rs.SyncExpedited), shard, flavorL)
			e.Gauge("citrus_rcu_active_stalls", "Synchronize calls currently stalled past the threshold.", float64(rs.ActiveStalls), shard, flavorL)
			e.Gauge("citrus_rcu_active_syncs", "Synchronize calls currently in flight.", float64(rs.ActiveSyncs), shard, flavorL)
			e.Gauge("citrus_rcu_oldest_sync_age_seconds", "Age of the oldest in-flight grace period.", float64(rs.OldestSyncAgeNanos)/1e9, shard, flavorL)
			e.Gauge("citrus_rcu_readers", "Currently registered readers.", float64(rs.Readers), shard, flavorL)
			e.Histogram("citrus_rcu_sync_wait_seconds", "Grace-period wait distribution.", rs.SyncWait, shard, flavorL)
		}

		rc := obs.Reclaim
		e.Counter("citrus_reclaim_deferred_total", "Callbacks deferred to the reclaimer.", float64(rc.Deferred), shard)
		e.Counter("citrus_reclaim_executed_total", "Deferred callbacks executed after their grace period.", float64(rc.Executed), shard)
		e.Counter("citrus_reclaim_dropped_total", "Callbacks shed to the GC at the hard cap.", float64(rc.Dropped), shard)
		e.Counter("citrus_reclaim_expedited_drains_total", "Drains triggered by the high watermark.", float64(rc.ExpeditedDrains), shard)
		e.Counter("citrus_reclaim_grace_periods_total", "Grace periods the reclaimer drove.", float64(rc.GracePeriods), shard)
		e.Gauge("citrus_reclaim_queue_depth", "Callbacks awaiting a grace period.", float64(rc.QueueDepth), shard)
		e.Gauge("citrus_reclaim_queue_high_water", "Deepest queue ever observed.", float64(rc.QueueHighWater), shard)
		e.Gauge("citrus_reclaim_oldest_age_seconds", "Age of the oldest queued callback (memory age).", float64(rc.OldestAgeNanos)/1e9, shard)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e.WriteTo(w) //nolint:errcheck // best-effort over HTTP
}
