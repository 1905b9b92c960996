package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"github.com/go-citrus/citrus/internal/harness"
)

// report is the machine-readable result document behind -json. It
// mirrors the CSV cells and adds the native-observability numbers
// (grace-period stats, tracing-overhead A/B) that the tables print,
// so a committed report captures everything a regression check needs.
type report struct {
	Generated string `json:"generated"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`

	// GoMaxProcs is the value at report creation, kept for context only:
	// a -procs sweep resets GOMAXPROCS per repetition, so the
	// authoritative value for any measurement is its cell's Procs field,
	// never this header.
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Duration   string `json:"duration"`
	Reps       int    `json:"reps"`
	Threads    []int  `json:"threads"`
	Procs      []int  `json:"procs"`            // the swept GOMAXPROCS axis
	Shards     []int  `json:"shards,omitempty"` // forest shard counts added as series
	Note       string `json:"note,omitempty"`

	// Cells: one row per (figure, series, threads), same as the CSV.
	Cells []reportCell `json:"cells"`

	// GraceStats: the -stats table (native Tree/Domain counters),
	// present when -stats ran.
	GraceStats []reportGP `json:"grace_period_stats,omitempty"`

	// TracingOverhead: the a4 A/B (plain Citrus vs tracing-enabled
	// Citrus on the same workload), present when figure a4 ran.
	TracingOverhead []reportOverhead `json:"tracing_overhead,omitempty"`

	// CombiningAblation: the a5 A/B (update-heavy Citrus with
	// grace-period combining on vs off), with the domain's native
	// lead/share accounting; present when figure a5 ran.
	CombiningAblation []reportCombining `json:"combining_ablation,omitempty"`
}

type reportCell struct {
	Figure    string  `json:"figure"`
	Impl      string  `json:"impl"`
	Threads   int     `json:"threads"`
	Procs     int     `json:"procs"`            // effective GOMAXPROCS for this cell
	Shards    int     `json:"shards,omitempty"` // forest shard count; 0 = unsharded
	OpsPerSec float64 `json:"ops_per_sec"`
}

type reportGP struct {
	Threads         int     `json:"threads"`
	OpsPerSec       float64 `json:"ops_per_sec"`
	Synchronizes    int64   `json:"synchronizes"`
	MeanWaitNanos   int64   `json:"mean_wait_ns"`
	P50WaitNanos    int64   `json:"p50_wait_ns"`
	P99WaitNanos    int64   `json:"p99_wait_ns"`
	InsertRetries   int64   `json:"insert_retries"`
	DeleteRetries   int64   `json:"delete_retries"`
	TwoChildDeletes int64   `json:"two_child_deletes"`
}

type reportCombining struct {
	Threads           int     `json:"threads"`
	Combining         bool    `json:"combining"`
	OpsPerSec         float64 `json:"ops_per_sec"`
	Synchronizes      int64   `json:"synchronizes"`
	Leads             int64   `json:"leads"`
	Shares            int64   `json:"shares"`
	Expedited         int64   `json:"expedited"`
	MeanWaitNanos     int64   `json:"mean_wait_ns"`
	P99WaitNanos      int64   `json:"p99_wait_ns"`
	FollowerWaits     int64   `json:"follower_waits"`
	FollowerMeanNanos int64   `json:"follower_mean_ns"`
}

type reportOverhead struct {
	Threads      int     `json:"threads"`
	BaselineOps  float64 `json:"baseline_ops_per_sec"` // tracing disabled
	TracedOps    float64 `json:"traced_ops_per_sec"`   // tracing enabled
	OverheadPct  float64 `json:"overhead_pct"`         // (base-traced)/base*100
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

func newReport(duration time.Duration, reps int, threads, procs, shards []int, note string) *report {
	return &report{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Duration:   duration.String(),
		Reps:       reps,
		Threads:    threads,
		Procs:      procs,
		Shards:     shards,
		Note:       note,
	}
}

// addCells appends harness cells under a figure id; nil-safe so call
// sites stay unconditional alongside the CSV writes.
func (r *report) addCells(figID string, cells []harness.Cell) {
	if r == nil {
		return
	}
	for _, c := range cells {
		r.Cells = append(r.Cells, reportCell{
			Figure:    figID,
			Impl:      c.Impl,
			Threads:   c.Workers,
			Procs:     c.Procs,
			Shards:    c.Shards,
			OpsPerSec: c.Throughput,
		})
	}
}

func (r *report) addGP(gp reportGP) {
	if r == nil {
		return
	}
	r.GraceStats = append(r.GraceStats, gp)
}

func (r *report) addCombining(c reportCombining) {
	if r == nil {
		return
	}
	r.CombiningAblation = append(r.CombiningAblation, c)
}

func (r *report) addOverhead(o reportOverhead) {
	if r == nil {
		return
	}
	r.TracingOverhead = append(r.TracingOverhead, o)
}

// write serializes the report to path (indented, trailing newline).
func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
