package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procTable tracks every server process and temporary directory the
// run has created, so each exit path — success, error, panic, timeout,
// SIGINT/SIGTERM — can stop and remove them. SIGKILL of the benchmark
// itself is covered by Pdeathsig on every server.
type procTable struct {
	mu      sync.Mutex
	servers map[*serverProc]struct{}
	dirs    map[string]struct{}
	closed  bool // set by cleanup: no server may start after it
}

func newProcTable() *procTable {
	return &procTable{servers: map[*serverProc]struct{}{}, dirs: map[string]struct{}{}}
}

func (p *procTable) addDir(dir string) {
	p.mu.Lock()
	p.dirs[dir] = struct{}{}
	p.mu.Unlock()
}

func (p *procTable) removeDir(dir string) error {
	p.mu.Lock()
	delete(p.dirs, dir)
	p.mu.Unlock()
	return os.RemoveAll(dir)
}

// cleanup stops every live server (SIGTERM, bounded wait, SIGKILL to
// its process group, reap) and removes every temporary directory.
func (p *procTable) cleanup() {
	p.mu.Lock()
	p.closed = true
	servers := make([]*serverProc, 0, len(p.servers))
	for s := range p.servers {
		servers = append(servers, s)
	}
	dirs := make([]string, 0, len(p.dirs))
	for d := range p.dirs {
		dirs = append(dirs, d)
	}
	p.mu.Unlock()
	for _, s := range servers {
		s.stop(2 * time.Second) //nolint:errcheck // exit status is irrelevant on the cleanup path
	}
	for _, d := range dirs {
		p.removeDir(d) //nolint:errcheck // best effort; reported by the next run's stale-dir sweep
	}
}

// serverProc is one kvserver process.
type serverProc struct {
	procs    *procTable
	cmd      *exec.Cmd
	pid      int
	execAt   time.Time
	tcpAddr  string
	httpAddr string
	log      *logSink

	exited  chan struct{} // closed once Wait has reaped the process
	exitErr error
	once    sync.Once
}

// startServer execs bin and waits until it has announced both bound
// addresses. The process gets its own process group (so a stop can
// SIGKILL everything it might have spawned) and Pdeathsig SIGKILL, so
// it dies with the benchmark even when the benchmark is SIGKILLed.
// Pdeathsig fires when the creating OS thread exits, not the process,
// so the exec and the Wait run on one goroutine locked to its thread
// for the child's whole life.
func startServer(procs *procTable, bin string, args ...string) (*serverProc, error) {
	args = append([]string{"-serve", "-demo=false", "-addr", "127.0.0.1:0", "-http", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	sink := newLogSink()
	cmd.Stderr = sink
	cmd.WaitDelay = 2 * time.Second
	s := &serverProc{procs: procs, cmd: cmd, log: sink, exited: make(chan struct{})}

	started := make(chan error, 1)
	go func() {
		runtime.LockOSThread() // never unlocked: the thread ends with this goroutine
		procs.mu.Lock()
		s.execAt = time.Now()
		err := errors.New("the run is shutting down")
		if !procs.closed {
			err = cmd.Start()
		}
		if err == nil {
			s.pid = cmd.Process.Pid
			procs.servers[s] = struct{}{}
		}
		procs.mu.Unlock()
		started <- err
		if err != nil {
			close(s.exited)
			return
		}
		s.exitErr = cmd.Wait()
		close(s.exited)
	}()
	if err := <-started; err != nil {
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: server pid %d started: %s\n", s.pid, strings.Join(args, " "))

	select {
	case <-sink.ready:
		s.tcpAddr, s.httpAddr = sink.addrs()
		return s, nil
	case <-s.exited:
		return nil, fmt.Errorf("server exited before listening (%v); log tail:\n%s", s.exitErr, sink.tail())
	case <-time.After(90 * time.Second):
		s.stop(time.Second) //nolint:errcheck // already failing
		return nil, fmt.Errorf("server did not announce its listeners within 90s; log tail:\n%s", sink.tail())
	}
}

// stop sends SIGTERM, waits up to grace for the exit, then SIGKILLs the
// process group, and always reaps. It returns the exit status: nil only
// for a clean exit 0. Calling it again returns the first result.
func (s *serverProc) stop(grace time.Duration) error {
	s.once.Do(func() {
		syscall.Kill(s.pid, syscall.SIGTERM) //nolint:errcheck // ESRCH: already gone, Wait below reaps
		select {
		case <-s.exited:
		case <-time.After(grace):
			syscall.Kill(-s.pid, syscall.SIGKILL) //nolint:errcheck // same
			<-s.exited
			if s.exitErr == nil {
				s.exitErr = errors.New("killed after SIGTERM grace expired")
			}
		}
		s.procs.mu.Lock()
		delete(s.procs.servers, s)
		s.procs.mu.Unlock()
	})
	return s.exitErr
}

// terminate is the graceful stop a workload requires to succeed: SIGTERM
// must lead to exit status 0 within the server's own drain budget.
func (s *serverProc) terminate() error {
	if err := s.stop(15 * time.Second); err != nil {
		return fmt.Errorf("server pid %d after SIGTERM: %v; log tail:\n%s", s.pid, err, s.log.tail())
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (s *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.pid)
}

// logSink receives the server's stderr: it keeps a tail for failure
// reports and picks the bound addresses out of the startup log, as
// internal/crashtorture does.
type logSink struct {
	mu      sync.Mutex
	partial []byte
	lines   []string
	tcp     string
	http    string
	ready   chan struct{}
	seen    bool // both addresses announced; ready is closed
	// serving is closed once the server logs that it serves until
	// interrupted, right before it installs its SIGTERM handler. It
	// answers requests earlier than that, and a SIGTERM in between kills
	// it with the default action instead of a graceful exit.
	serving chan struct{}
}

func newLogSink() *logSink {
	return &logSink{ready: make(chan struct{}), serving: make(chan struct{})}
}

func (l *logSink) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.partial = append(l.partial, p...)
	for {
		i := bytes.IndexByte(l.partial, '\n')
		if i < 0 {
			return len(p), nil
		}
		l.line(string(l.partial[:i]))
		l.partial = l.partial[i+1:]
	}
}

func (l *logSink) line(line string) {
	if len(l.lines) >= 64 {
		l.lines = l.lines[1:]
	}
	l.lines = append(l.lines, line)
	if _, addr, ok := strings.Cut(line, "kvserver listening on "); ok {
		l.tcp, _, _ = strings.Cut(addr, " ")
	}
	if _, addr, ok := strings.Cut(line, "stats on http://"); ok {
		l.http, _, _ = strings.Cut(addr, "/")
	}
	if strings.Contains(line, "serving until interrupted") {
		close(l.serving)
	}
	if l.tcp != "" && l.http != "" && !l.seen {
		l.seen = true
		close(l.ready)
	}
}

func (l *logSink) addrs() (tcp, http string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tcp, l.http
}

func (l *logSink) tail() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}
