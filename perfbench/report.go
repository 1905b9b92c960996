package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/go-citrus/citrus/citrusstat/promtext"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// The metric names BENCHMARK.json declares. --trace 0 prints exactly the
// end-to-end set in the JSON line, --trace 1 exactly the per-layer set.
// Layer metrics that exist only on some workloads (the WAL and snapshot
// layers are absent from in-memory point-read) are printed and saved
// under "extra" instead, so every declared metric is measured on every
// workload.
var endToEnd = []string{
	"throughput_ops_s", "get_p50_us", "write_p50_us", "scan_p50_us",
	"setup_s", "recovery_s", "server_rss_peak_mb",
}

// ungated are end-to-end metrics printed and saved with the rest but
// left out of BENCHMARK.json: on a shared 2-vCPU VM their run-to-run
// spread is wider than any bound BENCHMARK.json may set (see README.md),
// so no bound on them would mean anything.
var ungated = []string{"get_p99_us", "write_p99_us", "scan_p99_us"}

var perLayer = []string{
	"kvserver.service_get_p50_us", "kvserver.service_write_p50_us", "kvserver.service_scan_p50_us",
	"kvserver.outside_get_p50_us", "kvserver.shed_writes", "kvserver.gp_timeouts",
	"tree.get_ns", "tree.insert_ns", "tree.delete_ns", "tree.height",
	"tree.two_child_delete_ratio", "tree.retries_per_update", "tree.nodes_reused_per_insert", "tree.scan_nodes_per_pair",
	"forest.get_ns", "forest.insert_ns", "forest.delete_ns", "forest.scan_us", "forest.scan_pairs_per_result",
	"rcu.read_section_ns", "rcu.synchronize_us", "rcu.synchronizes_per_delete",
	"rcu.sync_wait_p50_us", "rcu.sync_wait_p99_us", "rcu.sync_share_ratio",
	"rcu.reclaim_queue_high_water", "rcu.reclaim_dropped",
	"replay.tracing_overhead_ratio", "replay.gc_pause_ms", "replay.heap_peak_mb",
}

type report struct {
	Workload string    `json:"workload"`
	scanMix  bool      // the workload's mix has SCANs
	Seed     uint64    `json:"seed"`
	Seconds  int       `json:"seconds"`
	Trace    int       `json:"trace"`
	Env      envHeader `json:"env"`

	Attempted  int64  `json:"attempted"`
	Failed     int64  `json:"failed"`
	Wrong      int64  `json:"wrong_replies"`
	FirstWrong string `json:"first_wrong_reply,omitempty"`

	E2E   map[string]metric `json:"end_to_end"`
	Layer map[string]metric `json:"per_layer,omitempty"`
	// Extra holds the layer metrics of layers this workload runs but
	// others do not, plus diagnostics.
	Extra   map[string]metric `json:"extra,omitempty"`
	Timings map[string]string `json:"timings"`
	// Parts holds each window figure's value in every part of the
	// window, the values its median is taken over.
	Parts  map[string][]float64 `json:"window_parts,omitempty"`
	Replay *replayConfig        `json:"replay_config,omitempty"`
	Notes  []string             `json:"notes"`
}

func newReport(cfg config, w *workload, env envHeader) *report {
	return &report{
		Workload: w.name, scanMix: w.mix[opScan] > 0, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Env: env,
		E2E: map[string]metric{}, Layer: map[string]metric{}, Extra: map[string]metric{},
		Timings: map[string]string{},
	}
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// addWindow turns the window's exact samples into the end-to-end
// metrics: each is the median, over the parts of the window, of the
// part's own value. Latencies cover successful ops only; failed ops are
// counted. The pooled whole-window timings go to the report's timings
// and extras. Mixes without SCAN take their SCAN figures from the
// 100-pair pages of the verification pass after each part.
func (r *report) addWindow(win *windowResult, setupS, recoveryS, rssMB float64) {
	parts := map[string][]float64{}
	var pooled [3]samples
	for _, p := range win.parts {
		parts["throughput_ops_s"] = append(parts["throughput_ops_s"], float64(p.ok)/p.elapsed.Seconds())
		scan := p.scan
		if !r.scanMix {
			scan = p.verify
		}
		for i, set := range []struct {
			name string
			s    samples
		}{{"get", p.get}, {"write", p.write}, {"scan", scan}} {
			if len(set.s) == 0 {
				continue
			}
			sorted := set.s.sorted()
			parts[set.name+"_p50_us"] = append(parts[set.name+"_p50_us"], us(sorted.percentile(50)))
			parts[set.name+"_p99_us"] = append(parts[set.name+"_p99_us"], us(sorted.percentile(99)))
			pooled[i] = append(pooled[i], set.s...)
		}
	}
	r.Attempted, r.Failed, r.Wrong = win.ops, win.failed, win.wrong
	if win.firstWrong != nil {
		r.FirstWrong = win.firstWrong.Error()
	}
	r.Parts = parts
	for name, vals := range parts {
		unit := "us"
		if name == "throughput_ops_s" {
			unit = "ops/s"
		}
		r.E2E[name] = metric{median(vals), unit}
	}
	// The closed loop's throughput is the inverse of its mean latency, so
	// a few long stalls move it far more than they move any median. This
	// is the share of the summed latency spent in ops slower than 1 ms.
	var total, stalled float64
	for _, p := range win.parts {
		for _, set := range []samples{p.get, p.write, p.scan} {
			for _, ns := range set {
				total += float64(ns)
				if ns > 1e6 {
					stalled += float64(ns)
				}
			}
		}
	}
	r.Extra["stall_share"] = metric{ratio(stalled, total), "ratio"}
	for i, name := range []string{"get", "write", "scan"} {
		s := pooled[i].sorted()
		r.Timings[name] = s.timing()
		r.Extra[name+"_p99_us.pooled"] = metric{us(s.percentile(99)), "us"}
	}
	r.E2E["setup_s"] = metric{setupS, "s"}
	r.E2E["recovery_s"] = metric{recoveryS, "s"}
	r.E2E["server_rss_peak_mb"] = metric{rssMB, "MB"}
	r.Extra["error_ratio"] = metric{ratio(float64(r.Failed), float64(r.Attempted)), "ratio"}
	r.Extra["scan_pairs_returned"] = metric{float64(win.scanPairs + win.verifyPairs), "count"}
}

// addScrape derives the per-layer metrics the server's own counters
// give, from the strict-parsed /metrics.prom before the first
// verification pass and after the last one on the measured server; idle
// is a scrape right after the second, whose scan-counter growth is one
// scrape's own footprint. Histogram percentiles are log2-bucket
// estimates.
func (r *report) addScrape(before, after, idle promtext.Metrics, win *windowResult, verifyPairs int) {
	q := func(name string, p float64, selectors ...[]string) (float64, float64) {
		return histQuantile(before, after, p, name, selectors...)
	}
	req := "kvserver_request_seconds"
	tcp := func(op string) []string { return []string{"face", "tcp", "op", op} }
	svcGet, nGet := q(req, 0.5, tcp("get"))
	svcScan, _ := q(req, 0.5, tcp("scan"))
	svcWrite, _ := q(req, 0.5, tcp("set"), tcp("del"))
	r.Layer["kvserver.service_get_p50_us"] = metric{svcGet * 1e6, "us"}
	r.Layer["kvserver.service_write_p50_us"] = metric{svcWrite * 1e6, "us"}
	r.Layer["kvserver.service_scan_p50_us"] = metric{svcScan * 1e6, "us"}
	r.Layer["kvserver.outside_get_p50_us"] = metric{r.E2E["get_p50_us"].Value - svcGet*1e6, "us"}
	r.Layer["kvserver.shed_writes"] = metric{delta(before, after, "kvserver_shed_writes_total"), "count"}
	r.Layer["kvserver.gp_timeouts"] = metric{delta(before, after, "kvserver_gp_timeouts_total"), "count"}
	r.note("scrape: %v tcp GETs in the server's histogram; its percentiles are log2-bucket estimates", nGet)

	d := func(name string) float64 {
		v := delta(before, after, name)
		if strings.HasPrefix(name, "citrus_tree_scan") {
			v -= delta(after, idle, name)
		}
		return v
	}
	inserts, deletes := d("citrus_tree_inserts_total"), d("citrus_tree_deletes_total")
	r.Layer["tree.two_child_delete_ratio"] = metric{ratio(d("citrus_tree_two_child_deletes_total"), deletes), "ratio"}
	r.Layer["tree.retries_per_update"] = metric{ratio(d("citrus_tree_insert_retries_total")+d("citrus_tree_delete_retries_total"), inserts+deletes), "ratio"}
	r.Layer["tree.nodes_reused_per_insert"] = metric{ratio(d("citrus_tree_nodes_reused_total"), inserts), "ratio"}
	r.Layer["tree.scan_nodes_per_pair"] = metric{ratio(d("citrus_tree_scan_nodes_total"), d("citrus_tree_scan_pairs_total")), "ratio"}
	clientPairs := float64(verifyPairs + win.scanPairs)
	r.Layer["forest.scan_pairs_per_result"] = metric{ratio(d("citrus_tree_scan_pairs_total"), clientPairs), "ratio"}

	gp := "citrus_rcu_sync_wait_seconds"
	p50, nGP := q(gp, 0.5)
	p99, _ := q(gp, 0.99)
	r.Layer["rcu.sync_wait_p50_us"] = metric{p50 * 1e6, "us"}
	r.Layer["rcu.sync_wait_p99_us"] = metric{p99 * 1e6, "us"}
	r.Layer["rcu.sync_share_ratio"] = metric{ratio(d("citrus_rcu_sync_shares_total"), d("citrus_rcu_synchronizes_total")), "ratio"}
	r.Layer["rcu.reclaim_queue_high_water"] = metric{maxOf(after, "citrus_reclaim_queue_high_water"), "count"}
	r.Layer["rcu.reclaim_dropped"] = metric{d("citrus_reclaim_dropped_total"), "count"}
	r.note("scrape: %v grace periods in the server's wait histogram", nGP)

	if after["kvserver_wal_appends_total"] == nil {
		return
	}
	appends := d("kvserver_wal_appends_total")
	f50, nF := q("kvserver_wal_fsync_seconds", 0.5)
	f99, _ := q("kvserver_wal_fsync_seconds", 0.99)
	r.Extra["wal.appends_per_fsync"] = metric{ratio(appends, d("kvserver_wal_fsyncs_total")), "ratio"}
	r.Extra["wal.fsync_p50_us"] = metric{f50 * 1e6, "us"}
	r.Extra["wal.fsync_p99_us"] = metric{f99 * 1e6, "us"}
	r.Extra["wal.bytes_per_append"] = metric{ratio(d("kvserver_wal_appended_bytes_total"), appends), "bytes"}
	r.Extra["snapshot.count"] = metric{d("kvserver_snapshots_total"), "count"}
	r.Extra["snapshot.recovery_server_s"] = metric{sum(after, "kvserver_recovery_seconds"), "s"}
	r.Extra["snapshot.recovery_keys"] = metric{sum(after, "kvserver_recovery_snapshot_keys"), "count"}
	r.Extra["snapshot.records_replayed"] = metric{sum(after, "kvserver_recovery_records_replayed"), "count"}
	r.note("scrape: %v fsyncs in the server's fsync histogram", nF)
}

// print writes the human-readable report, then the one-line JSON result
// a BENCHMARK.json command prints as the last line of standard output.
func (r *report) print(w io.Writer) {
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%d\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	fmt.Fprintf(w, "env: %s\n", r.Env)
	fmt.Fprintf(w, "ops: attempted=%d failed=%d wrong=%d error_ratio=%g\n", r.Attempted, r.Failed, r.Wrong, r.Extra["error_ratio"].Value)
	for _, k := range sortedKeys(r.Timings) {
		fmt.Fprintf(w, "timing %-6s %s\n", k, r.Timings[k])
	}
	show := func(section string, names []string, m map[string]metric) {
		for _, n := range names {
			if v, ok := m[n]; ok {
				fmt.Fprintf(w, "%-9s %-34s %14.6g %s\n", section, n, v.Value, v.Unit)
			}
		}
	}
	show("e2e", endToEnd, r.E2E)
	show("ungated", ungated, r.E2E)
	show("layer", perLayer, r.Layer)
	show("extra", sortedKeys(r.Extra), r.Extra)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	if r.Replay != nil {
		fmt.Fprintf(w, "replay config: %s\n", mustJSON(r.Replay))
	}

	names, from := endToEnd, r.E2E
	if r.Trace == 1 {
		names, from = perLayer, r.Layer
	}
	out := map[string]metric{}
	for _, n := range names {
		out[n] = from[n]
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Wrong == 0, r.Attempted, r.Failed, out})
	fmt.Fprintln(w, string(line))
}

// save writes the full report next to the span dumps.
func (r *report) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-trace%d.report.json", r.Workload, r.Trace)
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
