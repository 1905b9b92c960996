// Package crashtorture is the kill–recover–verify harness behind
// `citrustorture -crash`: it runs the kvserver example as a CHILD
// PROCESS with a write-ahead log, churns it over TCP while tracking
// exactly which writes were acknowledged, SIGKILLs it mid-churn at a
// seeded point, restarts it, and checks the durability oracle against
// the recovered state:
//
//   - every ACKNOWLEDGED write must survive the crash (under an fsync
//     policy that promises durability — always or group);
//   - a write that was IN FLIGHT when the process died (sent, no reply)
//     may have happened or not — both outcomes are legal, and the model
//     resolves the ambiguity from the recovered state before the next
//     round;
//   - recovery must announce itself: the restarted server's
//     /metrics.prom must carry the kvserver_recovery_* and
//     kvserver_wal_* series the strict parser accepts.
//
// SIGKILL gives the child no chance to flush: the kernel reclaims the
// process mid-write. That is exactly the failure the WAL's ack
// protocol (apply → append → fsync → reply) is built for, and it is
// also why `-fsync none` is this harness's negative control — the
// none policy buffers acknowledged records in USER SPACE, so a KILLed
// child genuinely loses them and the oracle MUST report lost writes
// (see docs/DURABILITY.md). A harness that passes nofsync is a
// harness that cannot see the bug it hunts.
//
// The final round exits gracefully (SIGTERM) instead of KILLing, then
// verifies once more — pinning the drain path's flush-before-close
// ordering from a separate process, where a lost buffer cannot be
// papered over by shared memory.
package crashtorture

import (
	"bufio"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/go-citrus/citrus/citrusstat/promtext"
	"github.com/go-citrus/citrus/internal/torture"
)

// Config parameterizes one crash-torture run. The zero value is not
// runnable: Bin must point at a kvserver binary (BuildBinary compiles
// one) and Seed should be set for reproducibility.
type Config struct {
	Bin  string // kvserver binary to exec
	Dir  string // durable state dir; empty = fresh temp dir, removed on pass
	Seed uint64

	Rounds        int    // SIGKILL rounds before the graceful finale (default 4)
	Clients       int    // concurrent churn connections (default 4)
	KeysPerClient int    // disjoint key-partition size per client (default 128)
	Fsync         string // WAL fsync policy handed to the child (default group)
	Shards        int    // child -shards (0 = child default, unsharded)
	SnapshotEvery int    // child -snapshot-every (default 512; snapshots mid-torture)

	// MinKill/MaxKill bound the seeded churn window before SIGKILL
	// (defaults 300ms and 1200ms). The draw is per round, from the
	// run's seed, so a failing seed replays the same kill schedule.
	MinKill, MaxKill time.Duration

	Out io.Writer // optional progress log (nil = quiet)
}

func (c *Config) setDefaults() {
	if c.Rounds <= 0 {
		c.Rounds = 4
	}
	if c.Clients <= 0 {
		c.Clients = 4
	}
	if c.KeysPerClient <= 0 {
		c.KeysPerClient = 128
	}
	if c.Fsync == "" {
		c.Fsync = "group"
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 512
	}
	if c.MinKill <= 0 {
		c.MinKill = 300 * time.Millisecond
	}
	if c.MaxKill <= c.MinKill {
		c.MaxKill = c.MinKill + 900*time.Millisecond
	}
}

// BuildBinary compiles ./examples/kvserver from the enclosing module
// into dir and returns the binary path. The harness runs the REAL
// server binary, not an in-process stand-in: recovery must work from
// cold in a fresh address space.
func BuildBinary(dir string) (string, error) {
	root, err := exec.Command("go", "list", "-m", "-f", "{{.Dir}}").Output()
	if err != nil {
		return "", fmt.Errorf("locate module root: %w", err)
	}
	bin := filepath.Join(dir, "kvserver")
	cmd := exec.Command("go", "build", "-o", bin, "./examples/kvserver")
	cmd.Dir = strings.TrimSpace(string(root))
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build kvserver: %w\n%s", err, out)
	}
	return bin, nil
}

// pendingOp is a write that was sent but never answered when the
// child died. opSet carries the value that would be resident if the
// write landed.
type pendingOp struct {
	set   bool
	value string
}

// keyState is the oracle's belief about one key. pending non-nil
// means the belief is ambiguous until the next observation.
type keyState struct {
	present bool
	value   string
	pending *pendingOp
}

// Run executes the full kill–recover–verify schedule and folds the
// outcome into a torture.Verdict (Impl "kvserver-crash", Flavor = the
// fsync policy) so `citrustorture -crash -json` reports crash runs in
// the same document as in-process runs.
func Run(cfg Config) (*torture.Verdict, error) {
	cfg.setDefaults()
	if cfg.Bin == "" {
		return nil, fmt.Errorf("crashtorture: Config.Bin is required (see BuildBinary)")
	}
	start := time.Now()
	v := &torture.Verdict{
		Seed:   cfg.Seed,
		Impl:   "kvserver-crash",
		Flavor: strings.ToLower(cfg.Fsync),
		Shards: cfg.Shards,
		Passed: true,
		PointHits: map[string]uint64{
			"sigkills": 0, "pending_resolved": 0, "recoveries_verified": 0,
		},
	}
	dir := cfg.Dir
	if dir == "" {
		d, err := os.MkdirTemp("", "crashtorture-*")
		if err != nil {
			return nil, err
		}
		dir = d
	}

	h := &harness{cfg: cfg, dir: dir, v: v}
	h.rng = rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x9E3779B97F4A7C15))
	h.model = make(map[int64]*keyState)

	if err := h.runAll(); err != nil {
		// Infrastructure errors (build, exec, dial) are errors, not
		// verdict failures — the oracle never got to speak.
		return nil, err
	}
	v.ElapsedMS = time.Since(start).Milliseconds()
	if v.Passed && cfg.Dir == "" {
		os.RemoveAll(dir)
	} else if !v.Passed {
		v.Failures = append(v.Failures,
			fmt.Sprintf("durable state preserved for inspection in %s", dir))
	}
	return v, nil
}

// harness carries one run's mutable state across rounds.
type harness struct {
	cfg   Config
	dir   string
	v     *torture.Verdict
	rng   *rand.Rand
	model map[int64]*keyState // guarded by mu during churn
	mu    sync.Mutex
}

func (h *harness) logf(format string, args ...any) {
	if h.cfg.Out != nil {
		fmt.Fprintf(h.cfg.Out, "crashtorture: "+format+"\n", args...)
	}
}

func (h *harness) fail(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.v.Passed = false
	if len(h.v.Failures) < 32 { // keep reports readable
		h.v.Failures = append(h.v.Failures, fmt.Sprintf(format, args...))
	}
}

func (h *harness) runAll() error {
	for round := 0; round < h.cfg.Rounds; round++ {
		child, err := h.startChild()
		if err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		if round > 0 {
			h.verifyRecovery(child, round)
		}
		killAfter := h.cfg.MinKill +
			time.Duration(h.rng.Int64N(int64(h.cfg.MaxKill-h.cfg.MinKill)))
		h.churn(child, killAfter)
		h.logf("round %d: SIGKILL after %v churn (%d ops so far)", round, killAfter, h.v.Ops)
		if err := child.kill(); err != nil {
			return fmt.Errorf("round %d: kill: %w", round, err)
		}
		h.v.PointHits["sigkills"]++
		h.v.Rounds++
	}

	// Graceful finale: recover, verify, churn briefly, SIGTERM, and
	// demand a clean exit — then one last cold verify.
	child, err := h.startChild()
	if err != nil {
		return fmt.Errorf("finale: %w", err)
	}
	h.verifyRecovery(child, h.cfg.Rounds)
	h.churn(child, h.cfg.MinKill)
	if err := child.terminate(); err != nil {
		h.fail("graceful shutdown: %v", err)
	}
	h.v.Rounds++

	child, err = h.startChild()
	if err != nil {
		return fmt.Errorf("post-drain verify: %w", err)
	}
	h.verifyRecovery(child, h.cfg.Rounds+1)
	if err := child.terminate(); err != nil {
		h.fail("final shutdown: %v", err)
	}
	return nil
}

// startChild execs the kvserver binary against the run's WAL dir on
// ephemeral ports and waits until both faces are up.
func (h *harness) startChild() (*child, error) {
	args := []string{
		"-serve", "-demo=false",
		"-addr", "127.0.0.1:0", "-http", "127.0.0.1:0",
		"-wal-dir", h.dir,
		"-fsync", h.cfg.Fsync,
		"-snapshot-every", fmt.Sprint(h.cfg.SnapshotEvery),
	}
	if h.cfg.Shards > 0 {
		args = append(args, "-shards", fmt.Sprint(h.cfg.Shards))
	}
	c := &child{cmd: exec.Command(h.cfg.Bin, args...)}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	c.cmd.Stdout = io.Discard
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	addrc := make(chan string, 2)
	go c.scanStderr(stderr, addrc)

	deadline := time.After(30 * time.Second)
	for c.tcpAddr == "" || c.httpAddr == "" {
		select {
		case line := <-addrc:
			if addr, ok := strings.CutPrefix(line, "tcp "); ok {
				c.tcpAddr = addr
			} else if addr, ok := strings.CutPrefix(line, "http "); ok {
				c.httpAddr = addr
			}
		case <-deadline:
			c.kill() //nolint:errcheck // already failing
			return nil, fmt.Errorf("child did not announce its listeners; last stderr:\n%s", c.tail())
		}
	}
	// The TCP accept loop is up once the address is logged; one probe
	// round-trip confirms the protocol face answers.
	conn, err := net.DialTimeout("tcp", c.tcpAddr, 5*time.Second)
	if err != nil {
		c.kill() //nolint:errcheck
		return nil, fmt.Errorf("probe dial: %w", err)
	}
	conn.Close()
	return c, nil
}

// child is one incarnation of the kvserver process.
type child struct {
	cmd      *exec.Cmd
	tcpAddr  string
	httpAddr string

	mu    sync.Mutex
	lines []string // stderr ring for failure reports
}

// scanStderr parses the child's startup log for the bound addresses
// and keeps a short tail for diagnostics.
func (c *child) scanStderr(r io.Reader, addrc chan<- string) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		c.mu.Lock()
		if len(c.lines) >= 64 {
			c.lines = c.lines[1:]
		}
		c.lines = append(c.lines, line)
		c.mu.Unlock()
		if i := strings.Index(line, "kvserver listening on "); i >= 0 {
			addr := line[i+len("kvserver listening on "):]
			if j := strings.IndexByte(addr, ' '); j >= 0 {
				addr = addr[:j]
			}
			addrc <- "tcp " + addr
		}
		if i := strings.Index(line, "stats on http://"); i >= 0 {
			addr := line[i+len("stats on http://"):]
			if j := strings.IndexByte(addr, '/'); j >= 0 {
				addr = addr[:j]
			}
			addrc <- "http " + addr
		}
	}
}

func (c *child) tail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.lines, "\n")
}

// kill SIGKILLs the child and reaps it. SIGKILL is the point: the
// child gets no signal handler, no defer, no flush.
func (c *child) kill() error {
	if err := c.cmd.Process.Kill(); err != nil {
		return err
	}
	c.cmd.Wait() //nolint:errcheck // "signal: killed" is the expected outcome
	return nil
}

// terminate asks for a graceful drain (SIGTERM) and demands exit 0
// within the drain budget — the drain path must flush and close the
// WAL, not abandon it.
func (c *child) terminate() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- c.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("child exited non-zero after SIGTERM: %v; stderr tail:\n%s", err, c.tail())
		}
		return nil
	case <-time.After(30 * time.Second):
		c.cmd.Process.Kill() //nolint:errcheck
		return fmt.Errorf("child did not exit within 30s of SIGTERM; stderr tail:\n%s", c.tail())
	}
}

// conn is one churn client's protocol connection.
type conn struct {
	c  net.Conn
	rd *bufio.Reader
}

func dialKV(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, rd: bufio.NewReader(c)}, nil
}

// request sends one command line and reads the one-line reply. An
// error means the reply never arrived — the write's fate is unknown.
func (k *conn) request(line string) (string, error) {
	if _, err := fmt.Fprintf(k.c, "%s\n", line); err != nil {
		return "", err
	}
	reply, err := k.rd.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(reply), nil
}

func (k *conn) close() { k.c.Close() }

// churn drives Clients concurrent connections, each over its own
// disjoint key partition, for roughly killAfter. Each client loops:
// consult the model, send the opposite write (SET if absent, mostly
// DEL if present), mark the key pending, and resolve the pending mark
// from the acknowledgement. A connection error leaves the pending mark
// for verifyRecovery to resolve.
func (h *harness) churn(c *child, killAfter time.Duration) {
	stopc := make(chan struct{})
	time.AfterFunc(killAfter, func() { close(stopc) })
	var wg sync.WaitGroup
	for cl := 0; cl < h.cfg.Clients; cl++ {
		wg.Add(1)
		// Per-client deterministic draws: the stream depends only on
		// (seed, client), never on goroutine interleaving.
		rng := rand.New(rand.NewPCG(h.cfg.Seed, uint64(cl)+0xC17A05))
		go func(cl int, rng *rand.Rand) {
			defer wg.Done()
			h.churnClient(c, cl, rng, stopc)
		}(cl, rng)
	}
	wg.Wait()
}

func (h *harness) churnClient(c *child, cl int, rng *rand.Rand, stopc <-chan struct{}) {
	kv, err := dialKV(c.tcpAddr)
	if err != nil {
		h.fail("client %d: dial: %v", cl, err)
		return
	}
	defer kv.close()
	base := int64(cl) * 1_000_000
	for seq := 0; ; seq++ {
		select {
		case <-stopc:
			return
		default:
		}
		key := base + rng.Int64N(int64(h.cfg.KeysPerClient))
		h.mu.Lock()
		st := h.model[key]
		if st == nil {
			st = &keyState{}
			h.model[key] = st
		}
		if st.pending != nil {
			// Never stack ambiguity: a key with an unresolved in-flight
			// write sits out until the next recovery resolves it.
			h.mu.Unlock()
			continue
		}
		// SET is insert-if-absent by protocol, so the only effective
		// write on a present key is DEL and on an absent key is SET.
		doSet := !st.present
		val := fmt.Sprintf("c%d-s%d", cl, seq)
		st.pending = &pendingOp{set: doSet, value: val}
		h.mu.Unlock()

		var reply string
		if doSet {
			reply, err = kv.request(fmt.Sprintf("SET %d %s", key, val))
		} else {
			reply, err = kv.request(fmt.Sprintf("DEL %d", key))
		}
		if err != nil {
			return // child died mid-request: pending stays for the oracle
		}
		h.resolveReply(kv, key, st, doSet, val, reply)
	}
}

// resolveReply folds one acknowledged reply into the model.
func (h *harness) resolveReply(kv *conn, key int64, st *keyState, wasSet bool, val, reply string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.v.Ops++
	switch {
	case reply == "OK" && wasSet:
		st.present, st.value, st.pending = true, val, nil
	case reply == "OK": // DEL
		st.present, st.value, st.pending = false, "", nil
	case reply == "EXISTS" && wasSet:
		// The model said absent (churnClient only SETs absent keys), so
		// the server resurrected a key or lost a delete.
		h.v.Passed = false
		h.v.Failures = append(h.v.Failures,
			fmt.Sprintf("key %d: SET answered EXISTS but the oracle says the key was absent", key))
		st.present, st.pending = true, nil
	case reply == "NOT_FOUND" && !wasSet:
		h.v.Passed = false
		h.v.Failures = append(h.v.Failures,
			fmt.Sprintf("key %d: DEL answered NOT_FOUND but the oracle says the key was present", key))
		st.present, st.value, st.pending = false, "", nil
	case strings.HasPrefix(reply, "BUSY"):
		// Shed before reaching the tree: definitively not applied.
		st.pending = nil
	case strings.HasPrefix(reply, "TIMEOUT"):
		// The grace-period deadline fired before the delete took effect;
		// whether it eventually did is ambiguous. Resolve by observation
		// on the same connection (per-key order holds per connection).
		h.mu.Unlock()
		obs, err := kv.request(fmt.Sprintf("GET %d", key))
		h.mu.Lock()
		if err != nil {
			return // pending survives for the next recovery
		}
		st.present = strings.HasPrefix(obs, "VALUE")
		if st.present {
			st.value = strings.TrimPrefix(obs, "VALUE ")
		} else {
			st.value = ""
		}
		st.pending = nil
	default:
		h.v.Passed = false
		h.v.Failures = append(h.v.Failures,
			fmt.Sprintf("key %d: unexpected reply %q", key, reply))
		st.pending = nil
	}
}

// verifyRecovery is the oracle proper: after a restart, every key the
// run has ever touched is read back and compared against the model.
// Keys with a pending in-flight write accept either outcome and the
// model adopts what it observes; keys without one must match exactly —
// a mismatch is a lost acknowledged write (or a resurrection). It then
// scrapes /metrics.prom and demands the recovery announced itself.
func (h *harness) verifyRecovery(c *child, round int) {
	kv, err := dialKV(c.tcpAddr)
	if err != nil {
		h.fail("verify round %d: dial: %v", round, err)
		return
	}
	defer kv.close()

	h.mu.Lock()
	keys := make([]int64, 0, len(h.model))
	for k := range h.model {
		keys = append(keys, k)
	}
	h.mu.Unlock()

	lost, resurrected := 0, 0
	for _, key := range keys {
		obs, err := kv.request(fmt.Sprintf("GET %d", key))
		if err != nil {
			h.fail("verify round %d: GET %d: %v", round, key, err)
			return
		}
		obsPresent := strings.HasPrefix(obs, "VALUE")
		obsValue := strings.TrimPrefix(obs, "VALUE ")

		h.mu.Lock()
		st := h.model[key]
		switch {
		case st.pending != nil:
			// In-flight at the kill: either outcome is legal. Adopt the
			// observation; sanity-check a landed SET carries its value.
			p := st.pending
			if obsPresent && p.set && !st.present && obsValue != p.value {
				h.fail("key %d: in-flight SET landed with value %q, want %q", key, obsValue, p.value)
			}
			st.present, st.value, st.pending = obsPresent, obsValue, nil
			if !obsPresent {
				st.value = ""
			}
			h.v.PointHits["pending_resolved"]++
		case st.present && !obsPresent:
			lost++
			if lost <= 8 {
				h.failLocked("round %d: acknowledged key %d (value %q) LOST across crash", round, key, st.value)
			}
			st.present, st.value = false, ""
		case st.present && obsValue != st.value:
			h.failLocked("round %d: key %d recovered with value %q, want %q", round, key, obsValue, st.value)
			st.value = obsValue
		case !st.present && obsPresent:
			resurrected++
			if resurrected <= 8 {
				h.failLocked("round %d: deleted key %d RESURRECTED as %q across crash", round, key, obsValue)
			}
			st.present, st.value = true, obsValue
		}
		h.mu.Unlock()
	}
	if lost > 8 {
		h.fail("round %d: ... and %d more lost acknowledged keys", round, lost-8)
	}
	if resurrected > 8 {
		h.fail("round %d: ... and %d more resurrected keys", round, resurrected-8)
	}
	h.v.ReclaimChecks += int64(len(keys))
	h.v.PointHits["recoveries_verified"]++
	h.logf("round %d: verified %d keys (%d in-flight resolved, %d lost, %d resurrected)",
		round, len(keys), h.v.PointHits["pending_resolved"], lost, resurrected)

	h.checkMetrics(c, round)
}

// failLocked is fail for callers already holding h.mu.
func (h *harness) failLocked(format string, args ...any) {
	h.v.Passed = false
	if len(h.v.Failures) < 32 {
		h.v.Failures = append(h.v.Failures, fmt.Sprintf(format, args...))
	}
}

// checkMetrics scrapes the restarted child's /metrics.prom through
// the strict parser and requires the durability series.
func (h *harness) checkMetrics(c *child, round int) {
	resp, err := http.Get("http://" + c.httpAddr + "/metrics.prom")
	if err != nil {
		h.fail("verify round %d: scrape /metrics.prom: %v", round, err)
		return
	}
	defer resp.Body.Close()
	m, err := promtext.Parse(resp.Body)
	if err != nil {
		h.fail("verify round %d: /metrics.prom failed strict parse: %v", round, err)
		return
	}
	for _, name := range []string{
		"kvserver_wal_appends_total",
		"kvserver_wal_durable_lsn",
		"kvserver_recovery_records_replayed",
		"kvserver_recovery_seconds",
	} {
		if _, ok := m[name]; !ok {
			h.fail("verify round %d: restarted server's /metrics.prom lacks %s", round, name)
		}
	}
}
