// Command citrusbench regenerates the tables behind every figure of the
// Citrus paper's evaluation (Arbel & Attiya, PODC 2014, §5).
//
// Each paper figure maps to one or more panels:
//
//	-figure 8     Citrus on classic (global-lock) RCU vs the scalable RCU
//	-figure 9     single writer, N−1 readers (panels 9a, 9b)
//	-figure 10    contains ratio × key range grid (panels 10a..10f)
//	-figure a1    ablation: grace-period frequency and cost in Citrus
//	-figure a4    A/B: Citrus with event tracing off vs on (citrustrace)
//	-figure a5    A/B: grace-period combining on vs off, update-only mix
//	-figure s     range scans under churn (panels s1 mixed, s2 scan-heavy)
//	-figure all   everything
//
// Panels can also be addressed individually (-figure 10c). The paper runs
// each cell for five seconds and averages five repetitions; that is
// -duration 5s -reps 5, which takes hours for the full grid — the
// defaults are scaled down, and -paper restores the paper's parameters.
//
// Output is a table per panel on stdout (series as columns, thread counts
// as rows, the same layout as the paper's plots) and optionally a CSV
// (-csv results.csv) with one row per (figure, series, threads) cell, or
// a structured JSON report (-json results.json) that also carries the
// grace-period stats (-stats) and the a4 tracing-overhead A/B.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/go-citrus/citrus/internal/dict"
	"github.com/go-citrus/citrus/internal/harness"
	"github.com/go-citrus/citrus/internal/impls"
	"github.com/go-citrus/citrus/internal/workload"
	"github.com/go-citrus/citrus/rcu"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "citrusbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("citrusbench", flag.ContinueOnError)
	var (
		figure   = fs.String("figure", "all", "comma-separated figures to regenerate: 8, 9, 10, s, a1..a5, all, or panel ids like 10c or s1")
		duration = fs.Duration("duration", 500*time.Millisecond, "measured duration per cell")
		reps     = fs.Int("reps", 1, "repetitions per cell (arithmetic mean is reported)")
		threads  = fs.String("threads", "", "comma-separated worker counts (default 1,2,4,8,16,32,64)")
		quick    = fs.Bool("quick", false, "tiny preset for smoke runs (100ms, threads 1,2,4, small key ranges)")
		paper    = fs.Bool("paper", false, "the paper's parameters: 5s per cell, 5 reps (slow)")
		csvPath  = fs.String("csv", "", "also append machine-readable results to this CSV file")
		jsonPath = fs.String("json", "", "also write a structured JSON report to this file")
		note     = fs.String("note", "", "free-form note recorded in the JSON report (baseline citation, machine, etc.)")
		verify   = fs.Bool("verify", true, "check structural invariants after every cell")
		implStr  = fs.String("impl", "", "comma-separated series filter (substring match on series names)")
		stats    = fs.Bool("stats", false, "after the selected figures, run Citrus once per thread count and print a native-observability stats table (grace periods, p50/p99 grace-period wait, retry rates)")
		procsStr = fs.String("procs", "", "comma-separated GOMAXPROCS sweep (e.g. 1,2,4): the selected figures rerun under each value, and every data point records the procs it ran under")
		shardStr = fs.String("shards", "", "comma-separated Citrus-forest shard counts added as extra series to the figure sweeps (e.g. 1,8); 1 is the degenerate single-tree forest")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	workerCounts := harness.DefaultWorkerCounts
	if *threads != "" {
		workerCounts = nil
		for _, part := range strings.Split(*threads, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				return fmt.Errorf("invalid -threads value %q", part)
			}
			workerCounts = append(workerCounts, n)
		}
	}
	// The procs axis: every value reruns the whole selected set under
	// that GOMAXPROCS, and each data point records the value it actually
	// ran under — a report whose header says one thing while cells ran
	// under another is exactly the mislabeling this flag exists to end.
	procsList := []int{runtime.GOMAXPROCS(0)}
	if *procsStr != "" {
		procsList = nil
		for _, part := range strings.Split(*procsStr, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				return fmt.Errorf("invalid -procs value %q", part)
			}
			procsList = append(procsList, n)
		}
	}

	var shardCounts []int
	if *shardStr != "" {
		for _, part := range strings.Split(*shardStr, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				return fmt.Errorf("invalid -shards value %q", part)
			}
			shardCounts = append(shardCounts, n)
		}
	}
	// Forest series are appended to every figure sweep; shardsByName
	// labels their cells with the shard count afterwards.
	shardsByName := map[string]int{}
	var forestSeries []impls.NamedFactory[int, int]
	for _, n := range shardCounts {
		nf := impls.ForestFactory[int, int](n)
		shardsByName[nf.Name] = n
		forestSeries = append(forestSeries, nf)
	}

	keyRangeScale := 1
	if *paper {
		*duration = 5 * time.Second
		*reps = 5
	}
	if *quick {
		*duration = 100 * time.Millisecond
		*reps = 1
		keyRangeScale = 100 // 2e5 → 2e3, 2e6 → 2e4
		if *threads == "" {
			workerCounts = []int{1, 2, 4}
		}
	}

	var rep *report
	if *jsonPath != "" {
		rep = newReport(*duration, *reps, workerCounts, procsList, shardCounts, *note)
	}

	var csv *os.File
	if *csvPath != "" {
		f, err := os.OpenFile(*csvPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		csv = f
		fmt.Fprintln(csv, "figure,impl,threads,procs,shards,ops_per_sec")
	}

	figures := strings.Split(*figure, ",")
	for i := range figures {
		figures[i] = strings.TrimSpace(figures[i])
	}
	selected := func(id string) bool {
		for _, f := range figures {
			if f == id || f == "all" {
				return true
			}
		}
		return false
	}
	want := func(f harness.Figure) bool {
		for _, sel := range figures {
			switch sel {
			case "all":
				return true
			case "8", "9", "10", "s":
				if strings.HasPrefix(f.ID, sel) {
					return true
				}
			default:
				if f.ID == sel {
					return true
				}
			}
		}
		return false
	}

	filterSeries := func(series []impls.NamedFactory[int, int]) []impls.NamedFactory[int, int] {
		if *implStr == "" {
			return series
		}
		var keep []impls.NamedFactory[int, int]
		for _, s := range series {
			for _, pat := range strings.Split(*implStr, ",") {
				if strings.Contains(strings.ToLower(s.Name), strings.ToLower(strings.TrimSpace(pat))) {
					keep = append(keep, s)
					break
				}
			}
		}
		return keep
	}

	maxWorkers := 0
	for _, w := range workerCounts {
		if w > maxWorkers {
			maxWorkers = w
		}
	}

	matched := false
	for _, procs := range procsList {
		runtime.GOMAXPROCS(procs)
		fmt.Printf("citrusbench: GOMAXPROCS=%d (NumCPU=%d), duration=%v, reps=%d, threads=%v\n\n",
			runtime.GOMAXPROCS(0), runtime.NumCPU(), *duration, *reps, workerCounts)
		if maxWorkers > procs {
			fmt.Fprintf(os.Stderr,
				"citrusbench: warning: thread counts up to %d exceed GOMAXPROCS=%d — those cells measure goroutine timesharing on %d proc(s), not parallel scaling\n",
				maxWorkers, procs, procs)
		}
		if procs > runtime.NumCPU() {
			fmt.Fprintf(os.Stderr,
				"citrusbench: warning: GOMAXPROCS=%d exceeds NumCPU=%d — the extra procs are OS-timeshared, not real cores\n",
				procs, runtime.NumCPU())
		}

		for _, f := range harness.Figures() {
			if !want(f) {
				continue
			}
			matched = true
			f.KeyRange /= keyRangeScale
			allSeries := f.Series
			f.Series = func() []impls.NamedFactory[int, int] {
				return filterSeries(append(allSeries(), forestSeries...))
			}
			if len(f.Series()) == 0 {
				fmt.Printf("== Figure %s: skipped (no series match -impl %q) ==\n\n", f.ID, *implStr)
				continue
			}
			fmt.Printf("== Figure %s: %s ==\n", f.ID, f.Caption)
			cells, err := f.Run(workerCounts, *duration, *reps, *verify)
			if err != nil {
				return err
			}
			for i := range cells {
				if n, ok := shardsByName[cells[i].Impl]; ok {
					cells[i].Shards = n
				}
			}
			harness.WriteTable(os.Stdout, cells)
			fmt.Println()
			if csv != nil {
				harness.WriteCSV(csv, f.ID, cells)
			}
			rep.addCells(f.ID, cells)
		}

		if selected("a1") {
			matched = true
			if err := runAblation(workerCounts, *duration, keyRangeScale, csv, rep); err != nil {
				return err
			}
		}
		if selected("a2") {
			matched = true
			if err := runSkewAblation(workerCounts, *duration, *reps, keyRangeScale, *verify, csv, rep); err != nil {
				return err
			}
		}
		if selected("a3") {
			matched = true
			if err := runNoSyncAblation(workerCounts, *duration, *reps, keyRangeScale, csv, rep); err != nil {
				return err
			}
		}
		if selected("a4") {
			matched = true
			if err := runTracingOverhead(workerCounts, *duration, *reps, keyRangeScale, csv, rep); err != nil {
				return err
			}
		}
		if selected("a5") {
			matched = true
			if err := runCombiningAblation(workerCounts, *duration, keyRangeScale, csv, rep); err != nil {
				return err
			}
		}
		if !matched {
			return fmt.Errorf("unknown figure %q (try 8, 9, 10, a1, a2, a3, a4, a5, all, or a panel id)", *figure)
		}
		if *stats {
			if err := runStats(workerCounts, *duration, keyRangeScale, csv, rep); err != nil {
				return err
			}
		}
	}
	if rep != nil {
		if err := rep.write(*jsonPath); err != nil {
			return err
		}
		fmt.Printf("wrote JSON report to %s\n", *jsonPath)
	}
	return nil
}

// runTracingOverhead is the A4 A/B: the Figure 10c workload on plain
// Citrus vs Citrus with a citrustrace flight recorder attached for the
// whole run. The delta is the steady-state cost of tracing while
// enabled; the disabled path's cost (a predictable branch) is below
// measurement noise and pinned by an allocation test instead.
func runTracingOverhead(workerCounts []int, duration time.Duration, reps, keyRangeScale int, csv *os.File, rep *report) error {
	fmt.Println("== Ablation A4: event-tracing overhead (50% contains, key range [0,2e5]) ==")
	series := []impls.NamedFactory[int, int]{
		{Name: impls.NameCitrus, New: impls.NewCitrus[int, int]},
		{Name: "Citrus (tracing on)", New: impls.AblationTracedCitrus},
	}
	cfg := harness.Config{
		KeyRange: harness.KeyRangeSmall / keyRangeScale,
		Mix:      harness.Uniform(workload.ReadMostly(50)),
		Duration: duration,
		Seed:     0xA4,
		Prefill:  true,
	}
	cells, err := harness.Sweep(series, workerCounts, cfg, reps)
	if err != nil {
		return err
	}
	harness.WriteTable(os.Stdout, cells)
	// Pair up baseline/traced by thread count for the overhead summary.
	base := map[int]float64{}
	for _, c := range cells {
		if c.Impl == impls.NameCitrus {
			base[c.Workers] = c.Throughput
		}
	}
	fmt.Printf("%-8s %14s %14s %10s\n", "threads", "tracing off", "tracing on", "overhead")
	fmt.Println(strings.Repeat("-", 50))
	for _, c := range cells {
		if c.Impl == impls.NameCitrus {
			continue
		}
		b := base[c.Workers]
		var pct float64
		if b > 0 {
			pct = (b - c.Throughput) / b * 100
		}
		fmt.Printf("%-8d %14.0f %14.0f %9.2f%%\n", c.Workers, b, c.Throughput, pct)
		rep.addOverhead(reportOverhead{
			Threads:     c.Workers,
			BaselineOps: b,
			TracedOps:   c.Throughput,
			OverheadPct: pct,
		})
	}
	fmt.Println()
	if csv != nil {
		harness.WriteCSV(csv, "a4", cells)
	}
	rep.addCells("a4", cells)
	return nil
}

// runCombiningAblation is the A5 A/B behind the grace-period combining
// engine: the update-only mix of Figure 9 (every two-child delete pays a
// Synchronize) on plain Citrus with combining on vs off, per thread
// count. The per-domain lead/share accounting shows the mechanism at
// work — with combining on, concurrent synchronizers collapse onto few
// led scans (leads ≪ synchronizes at high thread counts) and the mean
// per-call synchronize wait drops; with combining off, every call leads
// its own scan, the pre-combining behavior.
func runCombiningAblation(workerCounts []int, duration time.Duration, keyRangeScale int, csv *os.File, rep *report) error {
	fmt.Println("== Ablation A5: grace-period combining (update-only mix, key range [0,2e5]) ==")
	fmt.Printf("%-8s %-10s %12s %9s %8s %8s %8s %11s %10s %11s\n",
		"threads", "combining", "ops/s", "syncs", "leads", "shares", "exped", "mean sync", "p99 sync", "mean follow")
	fmt.Println(strings.Repeat("-", 104))
	for _, w := range workerCounts {
		for _, combining := range []bool{true, false} {
			dom := rcu.NewDomain()
			dom.SetCombining(combining)
			name := "Citrus (combining off)"
			if combining {
				name = "Citrus (combining on)"
			}
			factory := func() dict.Map[int, int] {
				return impls.NewCitrusWithFlavor[int, int](dom, name)
			}
			cfg := harness.Config{
				Workers:  w,
				KeyRange: harness.KeyRangeSmall / keyRangeScale,
				Mix:      harness.Uniform(workload.UpdateOnly()),
				Duration: duration,
				Seed:     0xA5,
				Prefill:  true,
			}
			res, err := harness.Run(factory, cfg)
			if err != nil {
				return err
			}
			st := dom.Stats()
			fw := st.FollowerWait
			fmt.Printf("%-8d %-10v %12.0f %9d %8d %8d %8d %11v %10v %11v\n",
				w, combining, res.Throughput(), st.Synchronizes, st.SyncLeads, st.SyncShares,
				st.SyncExpedited, st.SyncWait.Mean(), st.SyncWait.Percentile(99), fw.Mean())
			if csv != nil {
				fmt.Fprintf(csv, "a5,%s,%d,%d,0,%.0f\n", name, w, res.Procs, res.Throughput())
			}
			rep.addCells("a5", []harness.Cell{{Impl: name, Workers: w, Procs: res.Procs, Throughput: res.Throughput()}})
			rep.addCombining(reportCombining{
				Threads:           w,
				Combining:         combining,
				OpsPerSec:         res.Throughput(),
				Synchronizes:      st.Synchronizes,
				Leads:             st.SyncLeads,
				Shares:            st.SyncShares,
				Expedited:         st.SyncExpedited,
				MeanWaitNanos:     st.SyncWait.Mean().Nanoseconds(),
				P99WaitNanos:      st.SyncWait.Percentile(99).Nanoseconds(),
				FollowerWaits:     fw.Total(),
				FollowerMeanNanos: fw.Mean().Nanoseconds(),
			})
		}
	}
	fmt.Println()
	return nil
}

// runStats exercises Citrus once per thread count and prints the
// library's own observability counters — the same numbers a production
// service reads from Forest.Stats()/Domain.Stats() at runtime — rather
// than harness-side instrumentation.
func runStats(workerCounts []int, duration time.Duration, keyRangeScale int, csv *os.File, rep *report) error {
	fmt.Println("== Final stats: native Tree/Domain observability (50% contains, key range [0,2e5]) ==")
	fmt.Printf("%-8s %12s %8s %12s %10s %10s %9s %9s\n",
		"threads", "ops/s", "GPs", "mean GP", "p50 GP", "p99 GP", "ins-rty", "del-rty")
	fmt.Println(strings.Repeat("-", 86))
	for _, w := range workerCounts {
		var m dict.Map[int, int]
		factory := func() dict.Map[int, int] {
			m = impls.NewCitrusWithFlavor[int, int](rcu.NewDomain(), "Citrus (stats)")
			return m
		}
		cfg := harness.Config{
			Workers:  w,
			KeyRange: harness.KeyRangeSmall / keyRangeScale,
			Mix:      harness.Uniform(workload.ReadMostly(50)),
			Duration: duration,
			Seed:     0x57A75,
			Prefill:  true,
		}
		res, err := harness.Run(factory, cfg)
		if err != nil {
			return err
		}
		s := m.(impls.TreeStatser).TreeStats()
		if s.RCU == nil {
			return fmt.Errorf("stats run: flavor reported no RCU stats")
		}
		gp := s.RCU.SyncWait
		retryRate := func(retries, attempts int64) string {
			if attempts == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2f%%", float64(retries)/float64(attempts)*100)
		}
		fmt.Printf("%-8d %12.0f %8d %12v %10v %10v %9s %9s\n",
			w, res.Throughput(), s.RCU.Synchronizes, gp.Mean(), gp.Percentile(50), gp.Percentile(99),
			retryRate(s.InsertRetries, s.Inserts+s.InsertExisting+s.InsertRetries),
			retryRate(s.DeleteRetries, s.Deletes+s.DeleteMisses+s.DeleteRetries))
		if csv != nil {
			fmt.Fprintf(csv, "stats,Citrus,%d,%d,0,%.0f\n", w, res.Procs, res.Throughput())
		}
		rep.addGP(reportGP{
			Threads:         w,
			OpsPerSec:       res.Throughput(),
			Synchronizes:    s.RCU.Synchronizes,
			MeanWaitNanos:   gp.Mean().Nanoseconds(),
			P50WaitNanos:    gp.Percentile(50).Nanoseconds(),
			P99WaitNanos:    gp.Percentile(99).Nanoseconds(),
			InsertRetries:   s.InsertRetries,
			DeleteRetries:   s.DeleteRetries,
			TwoChildDeletes: s.TwoChildDeletes,
		})
	}
	fmt.Println()
	return nil
}

// runNoSyncAblation compares Citrus against a mutant whose
// synchronize_rcu is a no-op (rcu.NoSync): the throughput delta is the
// end-to-end price of the grace period in delete (the paper's line 74).
// The mutant is NOT a correct dictionary — its searches can return false
// negatives — so this is strictly a cost measurement.
func runNoSyncAblation(workerCounts []int, duration time.Duration, reps, keyRangeScale int, csv *os.File, rep *report) error {
	fmt.Println("== Ablation A3: end-to-end cost of grace periods (50% contains, key range [0,2e5]) ==")
	series := []impls.NamedFactory[int, int]{
		{Name: impls.NameCitrus, New: impls.NewCitrus[int, int]},
		{Name: "Citrus (no grace periods)", New: impls.AblationNoSyncCitrus},
	}
	cfg := harness.Config{
		KeyRange: harness.KeyRangeSmall / keyRangeScale,
		Mix:      harness.Uniform(workload.ReadMostly(50)),
		Duration: duration,
		Seed:     0xA3,
		Prefill:  true,
		// No Verify: the mutant's quiescent structure is fine, but skip
		// for symmetry with the cost-only purpose.
	}
	cells, err := harness.Sweep(series, workerCounts, cfg, reps)
	if err != nil {
		return err
	}
	harness.WriteTable(os.Stdout, cells)
	fmt.Println()
	if csv != nil {
		harness.WriteCSV(csv, "a3", cells)
	}
	rep.addCells("a3", cells)
	return nil
}

// runSkewAblation is an extension beyond the paper: the Figure 10c
// workload (50% contains) under Zipf(1.2)-skewed keys, where updates
// concentrate on a few hot subtrees. Fine-grained designs keep working;
// designs serializing all updaters behave as before (their bottleneck was
// already global).
func runSkewAblation(workerCounts []int, duration time.Duration, reps, keyRangeScale int, verify bool, csv *os.File, rep *report) error {
	fmt.Println("== Ablation A2 (extension): 50% contains under Zipf(1.2) skew, key range [0,2e5] ==")
	cfg := harness.Config{
		KeyRange: harness.KeyRangeSmall / keyRangeScale,
		Mix:      harness.Uniform(workload.ReadMostly(50)),
		Duration: duration,
		Seed:     0x5EED,
		Prefill:  true,
		Verify:   verify,
		ZipfS:    1.2,
	}
	cells, err := harness.Sweep(impls.Figure[int, int](), workerCounts, cfg, reps)
	if err != nil {
		return err
	}
	harness.WriteTable(os.Stdout, cells)
	fmt.Println()
	if csv != nil {
		harness.WriteCSV(csv, "a2", cells)
	}
	rep.addCells("a2", cells)
	return nil
}

// runAblation measures how often Citrus synchronizes (one grace period
// per two-child delete) and what each grace period costs, across thread
// counts — the accounting behind the paper's observation that Citrus
// "continues to scale, though the cost of synchronize_rcu is evident".
// The numbers come from the domain's native Stats (not a wrapper
// flavor), so this is also an end-to-end check of the observability
// layer the library ships.
func runAblation(workerCounts []int, duration time.Duration, keyRangeScale int, csv *os.File, rep *report) error {
	fmt.Println("== Ablation A1: grace-period frequency and cost in Citrus (50% contains, key range [0,2e5]) ==")
	fmt.Printf("%-8s %12s %10s %12s %11s %10s %10s\n",
		"threads", "ops/s", "syncs/s", "mean sync", "sync share", "op p50", "op p99")
	fmt.Println(strings.Repeat("-", 80))
	for _, w := range workerCounts {
		dom := rcu.NewDomain()
		factory := func() dict.Map[int, int] {
			return impls.NewCitrusWithFlavor[int, int](dom, "Citrus (native stats)")
		}
		cfg := harness.Config{
			Workers:        w,
			KeyRange:       harness.KeyRangeSmall / keyRangeScale,
			Mix:            harness.Uniform(workload.ReadMostly(50)),
			Duration:       duration,
			Seed:           0xAB1A7E,
			Prefill:        true,
			MeasureLatency: true,
		}
		res, err := harness.Run(factory, cfg)
		if err != nil {
			return err
		}
		st := dom.Stats()
		secs := res.Elapsed.Seconds()
		share := st.SyncWait.Sum().Seconds() / (secs * float64(w)) * 100
		fmt.Printf("%-8d %12.0f %10.0f %12v %10.2f%% %10v %10v\n",
			w, res.Throughput(), float64(st.Synchronizes)/secs, st.SyncWait.Mean(), share,
			res.Latency.Percentile(50), res.Latency.Percentile(99))
		if csv != nil {
			fmt.Fprintf(csv, "a1,Citrus,%d,%d,0,%.0f\n", w, res.Procs, res.Throughput())
		}
		rep.addCells("a1", []harness.Cell{{Impl: "Citrus", Workers: w, Procs: res.Procs, Throughput: res.Throughput()}})
	}
	fmt.Println()
	return nil
}
