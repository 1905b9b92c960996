// Command citrustorture is the repository's rcutorture analog: a
// time-boxed, seeded fault-injection harness that drives the search
// structures through the rare interleavings the Citrus paper's proofs
// are about and watches them with three oracles — the reclamation
// epoch-accounting shadow (with node poisoning), the structural
// invariant suite, and an exhaustive linearizability checker whose
// failing histories are shrunk to a minimal core.
//
// The subjects are the shipped code: `-impl citrus` (the default) is a
// Citrus tree, and `-impl forest` is the citrus.Forest kvserver serves,
// each shard's flavor shadowed by its own reclamation oracle. A tree
// runs in torture mode because its flavor is such an oracle; no
// separate build or switch is involved. Other -impl values name
// registry structures, which get the structural and linearizability
// oracles only.
//
// The -seed flag drives every schedule-injection decision and every
// workload draw, so a failure report's seed is a reproduction recipe:
//
//	citrustorture -flavor nosync -seed 42 -duration 4s
//
// runs the same injection schedule again. -seeds N sweeps N
// consecutive seeds; -json writes the machine-readable verdicts CI
// archives. The exit status is 1 iff any run failed.
//
// Negative controls (see docs/VERIFICATION.md): `-flavor nosync`,
// `-flavor snapearly` (grace-period combining with its sequence target
// computed one stride early), `-flavor ebrearly` (the epoch flavor with
// its advance threshold computed one epoch early, so pinned readers are
// never waited for) and `-flavor scanhog` are deliberately broken builds
// that MUST fail; they verify the harness can see the failures it hunts.
// The line-38 tag's negative control is a staged interleaving instead,
// internal/core's TestTagDefeatsABA: without node reuse the race the
// tag guards is too narrow for random schedules to hit in a time box.
//
// `-flavor ebr` swaps the reclamation design under the same oracles:
// the epoch-based rcu.EpochDomain instead of the default per-reader
// counter+flag domain. It is expected to PASS — the point is that the
// harness exercises the flavor seam, not just the default flavor.
//
// `-flavor stalledreader` is a robustness scenario: a dedicated reader
// parks inside its critical section (on shard 0 of a forest) while
// churn keeps needing grace periods, and the run additionally asserts —
// as positive controls — that the stall detector fired and that the
// parked reader saw its domain's oldest grace period
// (rcu.Stats.OldestSyncAgeNanos) at or past the stall threshold,
// without the tree corrupting (see docs/RCU.md "Robustness"); on a
// forest, also that the sibling shards kept completing grace periods.
//
// `-flavor scanstorm` is the scan-discipline scenario: half the churn
// workers run batched range scans (the read-side critical section is
// dropped every few emissions), every scan checked in flight for the
// weak-consistency contract, and the run fails if its median grace
// period (rcu.Stats.SyncWait) reaches the stall threshold. Its negative
// control is `-flavor scanhog` (citrus only): unbatched full-range
// scans with a slow consumer hog the read side, and the run MUST fail
// by the same rule — proving the harness can see a scan workload
// starving updaters of grace periods.
//
// `-crash` switches the harness from in-process torture to CRASH
// torture (see internal/crashtorture and docs/DURABILITY.md): the
// kvserver example runs as a child process with a write-ahead log,
// churns over real TCP, is SIGKILLed mid-write at seeded points, and
// every recovery is checked against a durability oracle — every
// acknowledged write survives, in-flight writes may land either way.
// Its negative control is `-crash -crash-fsync nofsync`: the none
// policy buffers acknowledged records in user space, so the KILLed
// child genuinely loses them and the run MUST fail with lost-write
// failures. -seed/-seeds/-json keep their meanings; the crash rounds
// reuse the same verdict document.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/go-citrus/citrus/internal/impls"
	"github.com/go-citrus/citrus/internal/torture"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "citrustorture:", err)
		os.Exit(1)
	}
}

// report is the JSON document written by -json: every run's verdict
// plus the sweep-level outcome.
type report struct {
	Passed bool               `json:"passed"`
	Runs   []*torture.Verdict `json:"runs"`
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("citrustorture", flag.ContinueOnError)
	var (
		implName = fs.String("impl", "citrus", "subject: citrus, forest (sharded citrus), a registry name (see -list), or all")
		list     = fs.Bool("list", false, "list subject names and exit")
		flavor   = fs.String("flavor", "", "citrus RCU flavor: scalable (default), classic, ebr (epoch-based), a negative control (nosync, snapearly, ebrearly, scanhog), or a robustness scenario (stalledreader, scanstorm)")
		seed     = fs.Uint64("seed", 1, "master seed: injection schedule + workloads derive from it")
		seeds    = fs.Int("seeds", 1, "sweep this many consecutive seeds starting at -seed")
		duration = fs.Duration("duration", 2*time.Second, "time box per run")
		threads  = fs.Int("threads", 8, "churn worker goroutines")
		keyRange = fs.Int("keyrange", 64, "churn key range (small ranges maximize conflicts)")
		shards   = fs.Int("shards", 0, "forest shard count (forest subject only; 0 = default 4)")
		maxSleep = fs.Duration("maxsleep", 0, "cap on injected sleeps (0 = schedpoint default)")
		jsonPath = fs.String("json", "", "write the verdict report as JSON to this file ('-' for stdout)")

		crash       = fs.Bool("crash", false, "crash torture: SIGKILL a WAL-backed kvserver child mid-churn and verify recovery (see docs/DURABILITY.md)")
		crashBin    = fs.String("crash-bin", "", "prebuilt kvserver binary for -crash (empty = go build ./examples/kvserver once)")
		crashRounds = fs.Int("crash-rounds", 4, "SIGKILL rounds per -crash run before the graceful finale")
		crashClient = fs.Int("crash-clients", 4, "concurrent churn connections per -crash run")
		crashKeys   = fs.Int("crash-keys", 128, "key-partition size per churn client (-crash)")
		crashFsync  = fs.String("crash-fsync", "group", "child WAL fsync policy for -crash: always, group, or nofsync (negative control: MUST lose acknowledged writes)")
		crashShards = fs.Int("crash-shards", 0, "child -shards for -crash (0 = unsharded)")
		crashSnap   = fs.Int("crash-snapshot-every", 512, "child -snapshot-every for -crash, so fuzzy snapshots land mid-torture")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *crash {
		return runCrash(out, crashCfgFlags{
			bin: *crashBin, rounds: *crashRounds, clients: *crashClient,
			keys: *crashKeys, fsync: *crashFsync, shards: *crashShards,
			snapEvery: *crashSnap, seed: *seed, seeds: *seeds, jsonPath: *jsonPath,
		})
	}
	if *list {
		fmt.Fprintln(out, "citrus")
		fmt.Fprintln(out, "forest")
		for _, f := range impls.All[int, int]() {
			if !strings.EqualFold(f.Name, "citrus") {
				fmt.Fprintln(out, f.Name)
			}
		}
		return nil
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be at least 1, got %d", *seeds)
	}

	type subjectCfg struct {
		impl, flavor string
	}
	var subjects []subjectCfg
	if *implName == "all" {
		if *flavor != "" {
			return fmt.Errorf("-impl all cannot be combined with -flavor")
		}
		subjects = append(subjects,
			subjectCfg{"citrus", "scalable"},
			subjectCfg{"citrus", "classic"},
			subjectCfg{"forest", "scalable"})
		for _, f := range impls.All[int, int]() {
			if !strings.HasPrefix(f.Name, "Citrus") {
				subjects = append(subjects, subjectCfg{f.Name, ""})
			}
		}
	} else {
		subjects = append(subjects, subjectCfg{*implName, *flavor})
	}

	rep := report{Passed: true}
	for _, sub := range subjects {
		for i := 0; i < *seeds; i++ {
			cfg := torture.Config{
				Seed:     *seed + uint64(i),
				Duration: *duration,
				Threads:  *threads,
				KeyRange: *keyRange,
				Impl:     sub.impl,
				Flavor:   sub.flavor,
				MaxSleep: *maxSleep,
			}
			if strings.EqualFold(sub.impl, "forest") {
				cfg.Shards = *shards
			}
			v, err := torture.Run(cfg)
			if err != nil {
				return err
			}
			rep.Runs = append(rep.Runs, v)
			printVerdict(out, v)
			if !v.Passed {
				rep.Passed = false
			}
		}
	}

	if err := writeReport(out, rep, *jsonPath); err != nil {
		return err
	}
	if !rep.Passed {
		return fmt.Errorf("%d of %d run(s) failed; reproduce with the seeds printed above", countFailed(rep.Runs), len(rep.Runs))
	}
	return nil
}

func countFailed(runs []*torture.Verdict) int {
	n := 0
	for _, v := range runs {
		if !v.Passed {
			n++
		}
	}
	return n
}

// printVerdict renders one run's outcome for a human: a PASS/FAIL
// line with the reproduction seed, the failure list, and the shrunk
// history when linearizability was the oracle that fired.
func printVerdict(out *os.File, v *torture.Verdict) {
	label := v.Impl
	if v.Shards > 0 {
		label += fmt.Sprintf("(%d)", v.Shards)
	}
	if v.Flavor != "" && v.Flavor != "scalable" {
		label += "/" + v.Flavor
	}
	status := "PASS"
	if !v.Passed {
		status = "FAIL"
	}
	fmt.Fprintf(out, "%-32s seed=%-6d %s  (%d rounds, %d ops, %d reclaim checks, %d point hits, %dms)\n",
		label, v.Seed, status, v.Rounds, v.Ops, v.ReclaimChecks, totalHits(v.PointHits), v.ElapsedMS)
	for _, f := range v.Failures {
		fmt.Fprintf(out, "    failure: %s\n", f)
	}
	for _, op := range v.MinimalHistory {
		fmt.Fprintf(out, "    history: %s\n", op)
	}
	if !v.Passed {
		fmt.Fprintf(out, "    reproduce: go run ./cmd/citrustorture %s\n", reproArgs(v))
	}
}

// reproArgs reconstructs the flag line that reruns a verdict's exact
// configuration and injection schedule.
func reproArgs(v *torture.Verdict) string {
	if v.Impl == "kvserver-crash" {
		args := fmt.Sprintf("-crash -crash-fsync %s -seed %d", v.Flavor, v.Seed)
		if v.Shards > 0 {
			args += fmt.Sprintf(" -crash-shards %d", v.Shards)
		}
		return args
	}
	args := fmt.Sprintf("-impl %q -seed %d", v.Impl, v.Seed)
	if v.Shards > 0 {
		args += fmt.Sprintf(" -shards %d", v.Shards)
	}
	if v.Flavor != "" {
		args += " -flavor " + v.Flavor
	}
	return args
}

func totalHits(hits map[string]uint64) uint64 {
	var n uint64
	for _, h := range hits {
		n += h
	}
	return n
}
