// Command perfbench is the repository's end-to-end benchmark. It drives
// the real examples/kvserver binary over its TCP face with a closed loop
// of two connections, on three seeded workloads (point-read,
// durable-churn, restart-read; see README.md), checks every reply
// against an exact model, and prints the end-to-end metrics. With
// --trace 1 it also replays the same seeded op streams in-process
// through the library layers kvserver is built from, with a span around
// every call into a layer, and prints the per-layer metrics instead.
//
// Run it through perfbench/run.sh from the repository root, which builds
// both binaries from the checkout first:
//
//	bash perfbench/run.sh --workload point-read --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

type config struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	serverBin string
	buildDir  string
	fault     string
}

// runLimit bounds a whole run, setups and replay included; past it the
// benchmark stops its servers and fails.
const runLimit = 170 * time.Second

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	var cfg config
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload name: point-read, durable-churn or restart-read")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.IntVar(&cfg.seconds, "seconds", 10, "length of the measured window")
	fs.IntVar(&cfg.trace, "trace", 0, "1: also run the traced in-process replay and print the per-layer metrics")
	fs.StringVar(&cfg.serverBin, "server-bin", "", "kvserver binary built from this checkout")
	fs.StringVar(&cfg.buildDir, "build-dir", ".bench_build", "directory for WAL directories, span dumps and reports")
	fs.StringVar(&cfg.fault, "fault", "", "self-test only: \"verify\" corrupts the model before the final check, so the run fails")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(cfg.workload)
	if err == nil && (cfg.seconds < 1 || (cfg.trace != 0 && cfg.trace != 1) || cfg.serverBin == "") {
		err = errors.New("need --seconds ≥ 1, --trace 0 or 1, and --server-bin")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	procs := newProcTable()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		rep *report
		err error
	}
	done := make(chan result, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- result{err: fmt.Errorf("panic: %v\n%s", p, debug.Stack())}
			}
		}()
		rep, err := runWorkload(ctx, cfg, w, procs)
		done <- result{rep, err}
	}()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	var res result
	select {
	case res = <-done:
	case s := <-sigc:
		res.err = fmt.Errorf("interrupted by %v", s)
	case <-time.After(runLimit):
		res.err = fmt.Errorf("run exceeded %v", runLimit)
	}
	cancel()
	procs.cleanup()
	if res.err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", res.err)
		return 1
	}
	res.rep.print(os.Stdout)
	if err := res.rep.save(filepath.Join(cfg.buildDir, "out")); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: saving the report:", err)
		return 1
	}
	return 0
}

// runWorkload is one run: setups, the measured window, the checks after
// it, and with --trace 1 the scrape deltas and the traced replay.
func runWorkload(ctx context.Context, cfg config, w *workload, procs *procTable) (*report, error) {
	runDir, err := runDirFor(cfg.buildDir)
	if err != nil {
		return nil, err
	}
	procs.addDir(runDir)
	env := readEnv(runDir)
	if w.durable && memoryBacked(env.WALFilesystem) {
		return nil, fmt.Errorf("refusing to run %s: the WAL directory %s is on %s, where fsync costs nothing", w.name, runDir, env.WALFilesystem)
	}
	fmt.Fprintln(os.Stderr, "perfbench: env:", env)
	rep := newReport(cfg, w, env)
	r := &tcpRun{ctx: ctx, cfg: cfg, w: w, procs: procs}

	// The window runs on the first setup. The others are timed between
	// parts of the window, so the setup_s and recovery_s samples spread
	// over the run instead of its first seconds; each is the median.
	var setupS, recoveryS []float64
	setupNo := func(i int) (*measuredState, error) {
		dir := filepath.Join(runDir, "setup-"+strconv.Itoa(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		for range w.bootProbes {
			b, err := r.bootProbe()
			if err != nil {
				return nil, fmt.Errorf("boot probe: %w", err)
			}
			recoveryS = append(recoveryS, b)
		}
		s, err := r.setup(dir)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		setupS = append(setupS, s.setupS)
		recoveryS = append(recoveryS, s.recoveryS)
		return s, nil
	}
	st, err := setupNo(0)
	if err != nil {
		return nil, err
	}
	next := 1
	between := func(partsDone int) error {
		for ; next < w.setups && partsDone >= windowParts*next/w.setups; next++ {
			s, err := setupNo(next)
			if err != nil {
				return err
			}
			if err := s.srv.terminate(); err != nil {
				return err
			}
			if err := procs.removeDir(s.dir); err != nil {
				return err
			}
		}
		return nil
	}

	fmt.Fprintf(os.Stderr, "perfbench: window start (%ds)\n", cfg.seconds)
	win, err := r.window(st.srv, st.models, time.Duration(cfg.seconds)*time.Second, cfg.fault == "verify", between)
	if err != nil {
		return nil, fmt.Errorf("window: %w", err)
	}
	rep.note("setup_s samples %v, recovery_s samples %v", setupS, recoveryS)
	fmt.Fprintln(os.Stderr, "perfbench: window end")
	after, err := scrapeProm(st.srv.httpAddr)
	if err != nil {
		return nil, err
	}
	// Rendering /metrics.prom walks the whole store once (kvserver_keys
	// is Len, a full scan), which the tree's scan counters count. A
	// back-to-back scrape measures that footprint so it can be taken out.
	idle, err := scrapeProm(st.srv.httpAddr)
	if err != nil {
		return nil, err
	}
	rss, err := st.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if err := st.srv.terminate(); err != nil {
		return nil, err
	}
	if w.restartVerify {
		// Every acknowledged write must survive a graceful stop and a
		// restart: recover and check the whole state again.
		restarted, err := startServer(procs, cfg.serverBin, append([]string{"-wal-dir", st.dir}, w.serveArgs...)...)
		if err != nil {
			return nil, fmt.Errorf("restart after the window: %w", err)
		}
		var discard samples
		var n int
		if err := r.verify(restarted, st.models, &discard, &n); err != nil {
			restarted.stop(time.Second) //nolint:errcheck // already failing
			return nil, fmt.Errorf("state recovered after the window: %w", err)
		}
		rep.note("restart after the window recovered and verified %d pairs (%s)", n, discard.sorted().timing())
		if err := restarted.terminate(); err != nil {
			return nil, err
		}
	}
	if err := procs.removeDir(st.dir); err != nil {
		return nil, err
	}

	rep.addWindow(win, median(setupS), median(recoveryS), rss)
	if cfg.trace == 1 {
		rep.addScrape(st.before, after, idle, win, st.scanPairs+win.verifyPairs)
		if err := replay(ctx, cfg, w, runDir, rep); err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
	}
	return rep, nil
}

// corruptModel drops one present key from a model — the self-test's
// stand-in for a server that lost a write — so the next verification
// must fail the run.
func corruptModel(models []*model) {
	for _, m := range models {
		for i, p := range m.present {
			if p && !m.unknown[i] {
				m.present[i] = false
				return
			}
		}
	}
}

// processAlive reports whether pid names a live, non-zombie process.
func processAlive(pid int) bool {
	if err := syscall.Kill(pid, 0); err != nil && !errors.Is(err, syscall.EPERM) {
		return false
	}
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	// The state field follows the parenthesised command name.
	for i := len(b) - 1; i > 0; i-- {
		if b[i] == ')' && i+2 < len(b) {
			return b[i+2] != 'Z' && b[i+2] != 'X'
		}
	}
	return true
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%v", v)
	}
	return string(b)
}
