package main

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// These self-tests run the real benchmark binary against the real
// kvserver and check that no server it started outlives it, whichever
// way it ends.

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// buildBinaries builds kvserver from the enclosing repository and the
// benchmark itself, once per test process.
func buildBinaries(t *testing.T) (bench, server string) {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs kvserver")
	}
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "perfbench-selftest-")
		if buildErr != nil {
			return
		}
		for _, b := range []struct{ dir, out, pkg string }{
			{"..", "kvserver", "./examples/kvserver"},
			{".", "perfbench", "."},
		} {
			cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, b.out), b.pkg)
			cmd.Dir = b.dir
			if out, err := cmd.CombinedOutput(); err != nil {
				buildErr = &buildFailure{b.pkg, string(out), err}
				return
			}
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(binDir, "perfbench"), filepath.Join(binDir, "kvserver")
}

type buildFailure struct {
	pkg, out string
	err      error
}

func (b *buildFailure) Error() string {
	return "go build " + b.pkg + ": " + b.err.Error() + "\n" + b.out
}

var serverPid = regexp.MustCompile(`server pid (\d+) started`)

// benchRun is one benchmark process whose stderr is watched line by line.
type benchRun struct {
	cmd    *exec.Cmd
	stdout bytes.Buffer
	mu     sync.Mutex
	pids   []int
	lines  chan string
}

func startBench(t *testing.T, buildDir string, args ...string) *benchRun {
	t.Helper()
	bench, server := buildBinaries(t)
	r := &benchRun{lines: make(chan string, 1024)}
	r.cmd = exec.Command(bench, append([]string{"--server-bin", server, "--build-dir", buildDir}, args...)...)
	r.cmd.Stdout = &r.stdout
	stderr, err := r.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		defer close(r.lines)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if m := serverPid.FindStringSubmatch(line); m != nil {
				pid, _ := strconv.Atoi(m[1])
				r.mu.Lock()
				r.pids = append(r.pids, pid)
				r.mu.Unlock()
			}
			select {
			case r.lines <- line:
			default:
			}
		}
	}()
	return r
}

// waitFor consumes stderr lines until one contains want.
func (r *benchRun) waitFor(t *testing.T, want string, limit time.Duration) {
	t.Helper()
	deadline := time.After(limit)
	for {
		select {
		case line, ok := <-r.lines:
			if !ok {
				t.Fatalf("benchmark exited before logging %q", want)
			}
			if strings.Contains(line, want) {
				return
			}
		case <-deadline:
			t.Fatalf("no %q within %v", want, limit)
		}
	}
}

// assertServersGone checks that every server the run logged has exited
// (a zombie awaiting its reaper counts as gone: it runs nothing).
func (r *benchRun) assertServersGone(t *testing.T) {
	t.Helper()
	r.mu.Lock()
	pids := append([]int(nil), r.pids...)
	r.mu.Unlock()
	if len(pids) == 0 {
		t.Fatal("the run logged no server pid")
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, pid := range pids {
		for processAlive(pid) {
			if time.Now().After(deadline) {
				t.Fatalf("server pid %d is still running after the benchmark exited", pid)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func TestSIGKILLMidWindowLeavesNoServer(t *testing.T) {
	buildDir := t.TempDir()
	r := startBench(t, buildDir, "--workload", "durable-churn", "--seed", "3", "--seconds", "60")
	r.waitFor(t, "window start", 90*time.Second)
	time.Sleep(500 * time.Millisecond) // well inside the window
	if err := r.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	r.cmd.Wait() //nolint:errcheck // "signal: killed" is the point
	r.assertServersGone(t)

	// The killed run could not remove its WAL directories; the next run
	// sweeps them, and a failing run removes its own.
	runs := filepath.Join(buildDir, "runs")
	if ents, _ := os.ReadDir(runs); len(ents) != 1 {
		t.Fatalf("want the killed run's directory left in %s, found %d entries", runs, len(ents))
	}
	next := startBench(t, buildDir, "--workload", "durable-churn", "--seed", "3", "--seconds", "1", "--fault", "verify")
	if err := next.cmd.Wait(); err == nil {
		t.Fatal("the faulted run exited 0")
	}
	next.assertServersGone(t)
	if ents, _ := os.ReadDir(runs); len(ents) != 0 {
		t.Fatalf("%s still holds %d run directories", runs, len(ents))
	}
}

func TestFailedRunLeavesNoServer(t *testing.T) {
	r := startBench(t, t.TempDir(), "--workload", "point-read", "--seed", "4", "--seconds", "1", "--fault", "verify")
	err := r.cmd.Wait()
	var exit *exec.ExitError
	if err == nil || !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("the faulted run ended with %v, want exit status 1", err)
	}
	out := strings.TrimSpace(r.stdout.String())
	if strings.Contains(out, `"correct"`) {
		t.Fatalf("a failed run printed a result:\n%s", out)
	}
	r.assertServersGone(t)
}

func TestSIGTERMStopsServers(t *testing.T) {
	r := startBench(t, t.TempDir(), "--workload", "durable-churn", "--seed", "5", "--seconds", "60")
	r.waitFor(t, "window start", 90*time.Second)
	if err := r.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := r.cmd.Wait(); err == nil {
		t.Fatal("an interrupted run exited 0")
	}
	r.assertServersGone(t)
}

// A directory holding only the benchmark's own files — no kvserver
// source — must fail fast with a non-zero status and no result.
func TestRunFailsWithoutTheRepository(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the launcher")
	}
	dir := t.TempDir()
	if err := os.CopyFS(filepath.Join(dir, "perfbench"), os.DirFS(".")); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "point-read", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	if err == nil || strings.Contains(stdout.String(), `"correct"`) {
		t.Fatalf("run in a bare directory: err=%v stdout=%q", err, stdout.String())
	}
}

// fsync on a memory-backed filesystem costs nothing, so a durable
// workload whose WAL directory would land there must refuse to run.
func TestDurableWorkloadRefusesTmpfs(t *testing.T) {
	if fsType("/dev/shm") != "tmpfs" {
		t.Skip("no tmpfs at /dev/shm")
	}
	dir, err := os.MkdirTemp("/dev/shm", "perfbench-tmpfs-")
	if err != nil {
		t.Skip(err)
	}
	defer os.RemoveAll(dir)
	r := startBench(t, dir, "--workload", "durable-churn", "--seed", "1", "--seconds", "1")
	r.waitFor(t, "refusing to run durable-churn", 30*time.Second)
	if err := r.cmd.Wait(); err == nil {
		t.Fatal("a durable run on tmpfs exited 0")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.pids) != 0 {
		t.Fatalf("it started servers %v before refusing", r.pids)
	}
}
