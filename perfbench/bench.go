package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/go-citrus/citrus/citrusstat/promtext"
)

// tcpRun drives real kvserver processes over their TCP face.
type tcpRun struct {
	ctx   context.Context
	cfg   config
	w     *workload
	procs *procTable
}

// measuredState is one setup's result: the server the window runs on,
// the exact models of what it holds, and what the setup cost.
type measuredState struct {
	srv       *serverProc
	dir       string
	models    []*model
	setupS    float64 // first server exec → ready for the window
	recoveryS float64 // measured server exec → first correct reply
	before    promtext.Metrics
	scanPairs int // pairs returned by the verification before the window
}

// setup builds the measured state once: exec, prefill (on a prefill
// lifetime, stopped gracefully, when the workload has one), recovery,
// and a full verification of the state the window starts from.
func (r *tcpRun) setup(dir string) (*measuredState, error) {
	w := r.w
	st := &measuredState{dir: dir, models: []*model{newModel(w, 0), newModel(w, 1)}}
	args := func(extra []string) []string {
		if w.durable {
			return append([]string{"-wal-dir", dir}, extra...)
		}
		return extra
	}
	var firstExec time.Time
	if w.prefillArgs != nil {
		pre, err := startServer(r.procs, r.cfg.serverBin, args(w.prefillArgs)...)
		if err != nil {
			return nil, fmt.Errorf("prefill server: %w", err)
		}
		firstExec = pre.execAt
		if err := r.prefill(pre, st.models); err != nil {
			pre.stop(time.Second) //nolint:errcheck // already failing
			return nil, err
		}
		if w.snapshotWait {
			if err := waitSnapshot(r.ctx, pre, w.resident); err != nil {
				pre.stop(time.Second) //nolint:errcheck // already failing
				return nil, err
			}
		}
		if err := pre.terminate(); err != nil {
			return nil, fmt.Errorf("prefill lifetime: %w", err)
		}
	}
	srv, err := startServer(r.procs, r.cfg.serverBin, args(w.serveArgs)...)
	if err != nil {
		return nil, err
	}
	st.srv = srv
	if firstExec.IsZero() {
		firstExec = srv.execAt
	}
	fail := func(err error) (*measuredState, error) {
		srv.stop(time.Second) //nolint:errcheck // already failing
		return nil, err
	}
	rec, err := firstCorrectReply(srv, st.models)
	if err != nil {
		return fail(err)
	}
	st.recoveryS = rec.Seconds()
	if w.prefillArgs == nil {
		if err := r.prefill(srv, st.models); err != nil {
			return fail(err)
		}
	}
	if st.before, err = scrapeProm(srv.httpAddr); err != nil {
		return fail(err)
	}
	var pages samples
	if err := r.verify(srv, st.models, &pages, &st.scanPairs); err != nil {
		return fail(fmt.Errorf("state before the window: %w", err))
	}
	st.setupS = time.Since(firstExec).Seconds()
	return st, nil
}

// firstCorrectReply times one GET, answered as the model predicts, from
// the server's exec: boot plus recovery as a client sees it.
func firstCorrectReply(srv *serverProc, models []*model) (time.Duration, error) {
	c, err := dialKV(srv.tcpAddr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if err := c.deadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, err
	}
	out, err := c.get(models[0], 0)
	if err != nil || out != okReply {
		return 0, fmt.Errorf("first GET on the fresh server: %v", err)
	}
	return time.Since(srv.execAt), nil
}

// bootProbe times one more boot of an in-memory server, exec to first
// correct reply, then stops it: the cheap restarts that give in-memory
// workloads enough recovery_s samples.
func (r *tcpRun) bootProbe() (float64, error) {
	srv, err := startServer(r.procs, r.cfg.serverBin, r.w.serveArgs...)
	if err != nil {
		return 0, err
	}
	d, err := firstCorrectReply(srv, []*model{newModel(r.w, 0)})
	if err == nil {
		select {
		case <-srv.log.serving:
			// The handler is installed right after that line; give the
			// server time to get there before the graceful stop.
			time.Sleep(100 * time.Millisecond)
			return d.Seconds(), srv.terminate()
		case <-time.After(10 * time.Second):
			err = errors.New("the server never logged that it is serving")
		}
	}
	srv.stop(time.Second) //nolint:errcheck // already failing
	return 0, err
}

// prefill inserts the workload's resident keys, each connection its
// own share in seeded random order, every reply checked.
func (r *tcpRun) prefill(srv *serverProc, models []*model) error {
	return forEachConn(func(c int) error {
		conn, err := dialKV(srv.tcpAddr)
		if err != nil {
			return err
		}
		defer conn.Close()
		if err := conn.deadline(time.Now().Add(120 * time.Second)); err != nil {
			return err
		}
		for i, key := range prefillOrder(r.w, r.cfg.seed, c) {
			if i%1024 == 0 && r.ctx.Err() != nil {
				return r.ctx.Err()
			}
			if out, err := conn.set(models[c], key); out != okReply {
				return fmt.Errorf("prefill: %v (reply class %d)", err, out)
			}
		}
		return nil
	})
}

// forEachConn runs fn once per connection index concurrently and
// returns the first error. A panic in fn becomes an error, so the
// caller's cleanup still runs.
func forEachConn(fn func(c int) error) error {
	errs := make([]error, numConns)
	var wg sync.WaitGroup
	for c := 0; c < numConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[c] = fmt.Errorf("connection %d panicked: %v", c, p)
				}
			}()
			errs[c] = fn(c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// waitSnapshot polls the strict-parsed /metrics.prom until the server
// has installed a snapshot stamped with LSN lsn.
func waitSnapshot(ctx context.Context, srv *serverProc, lsn int) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		m, err := scrapeProm(srv.httpAddr)
		if err != nil {
			return err
		}
		got := sum(m, "kvserver_snapshot_last_lsn")
		if got == float64(lsn) {
			return nil
		}
		if got > float64(lsn) || time.Now().After(deadline) {
			return fmt.Errorf("waiting for snapshot lsn %d: server reports %v", lsn, got)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// verify pages through the whole keyspace with SCAN and checks every
// pair against both connections' models: the quiescent full-state
// check. Each page's latency joins lat.
func (r *tcpRun) verify(srv *serverProc, models []*model, lat *samples, pairs *int) error {
	c, err := dialKV(srv.tcpAddr)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.deadline(time.Now().Add(120 * time.Second)); err != nil {
		return err
	}
	for lo := int64(0); lo < r.w.keyspace; {
		t0 := time.Now()
		n, covered, err := c.scan(models, lo, r.w.keyspace, verifyPage)
		if err != nil {
			return err
		}
		*lat = append(*lat, int64(time.Since(t0)))
		*pairs += n
		lo = covered
	}
	return nil
}

// windowParts is how many parts the measured window is cut into. The
// parts run back to back on the same two connections, and after each
// one the load pauses for a full-state verification pass. So the state
// is checked 20 times per window, and every window figure, the
// verification SCAN pages included, is sampled across the whole window
// rather than at one moment (see report.addWindow).
const windowParts = 20

// warmup is the unmeasured load before the window's first part.
const warmup = time.Second

// partResult is what one part of the window saw, over both connections.
type partResult struct {
	get, write, scan samples // exact latencies of successful ops
	ok               int
	elapsed          time.Duration // from the part's start to its last reply
	verify           samples       // the verification pass after the part
}

func (p *partResult) add(q *partResult) {
	p.get = append(p.get, q.get...)
	p.write = append(p.write, q.write...)
	p.scan = append(p.scan, q.scan...)
	p.ok += q.ok
}

// windowResult is what the measured window saw.
type windowResult struct {
	parts       []partResult
	ops         int64
	failed      int64
	wrong       int64
	firstWrong  error
	scanPairs   int // pairs the mix's SCANs returned
	verifyPairs int // pairs the verification passes returned
}

// loadConn is one closed-loop caller: its connection, its seeded op
// stream, the model of the keys it owns, and what it has seen.
type loadConn struct {
	idx        int
	conn       *kvConn
	stream     *opStream
	m          *model
	lost       bool       // the connection failed; it sends nothing more
	part       partResult // this connection's share of the current part
	ops        int64
	failed     int64
	wrong      int64
	firstWrong error
	scanPairs  int
}

// window runs the closed loop for d in windowParts parts, with a
// full-state verification after each. Each connection sends its next op
// only after the previous reply. After each part's verification it
// calls between with the number of parts done; the load pauses
// meanwhile. corruptLast is the self-test fault: it corrupts the models
// before the last verification, which must then fail the run.
func (r *tcpRun) window(srv *serverProc, models []*model, d time.Duration, corruptLast bool, between func(partsDone int) error) (*windowResult, error) {
	conns := make([]*loadConn, numConns)
	defer func() {
		for _, lc := range conns {
			if lc != nil {
				lc.conn.Close()
			}
		}
	}()
	for c := range conns {
		kc, err := dialKV(srv.tcpAddr)
		if err != nil {
			return nil, err
		}
		conns[c] = &loadConn{idx: c, conn: kc, stream: newOpStream(r.w, r.cfg.seed, c), m: models[c]}
		if err := kc.deadline(time.Now().Add(d + 120*time.Second)); err != nil {
			return nil, err
		}
	}
	// Warm-up: load the fresh connections for a second, unmeasured,
	// before the first part.
	if err := forEachConn(func(c int) error { return r.runPart(conns[c], time.Now().Add(warmup)) }); err != nil {
		return nil, err
	}
	res := &windowResult{}
	for k := 0; k < windowParts; k++ {
		start := time.Now()
		end := start.Add(d / windowParts)
		var last [numConns]time.Time
		err := forEachConn(func(c int) error {
			defer func() { last[c] = time.Now() }()
			conns[c].part = partResult{}
			return r.runPart(conns[c], end)
		})
		if err != nil {
			return nil, err
		}
		part := partResult{elapsed: slices.MaxFunc(last[:], time.Time.Compare).Sub(start)}
		for _, lc := range conns {
			part.add(&lc.part)
		}
		if corruptLast && k == windowParts-1 {
			corruptModel(models)
		}
		if err := r.verify(srv, models, &part.verify, &res.verifyPairs); err != nil {
			return nil, fmt.Errorf("state after part %d of %d: %w", k+1, windowParts, err)
		}
		res.parts = append(res.parts, part)
		if err := between(k + 1); err != nil {
			return nil, err
		}
	}
	for _, lc := range conns {
		res.ops += lc.ops
		res.failed += lc.failed
		res.wrong += lc.wrong
		res.scanPairs += lc.scanPairs
		if lc.firstWrong != nil && res.firstWrong == nil {
			res.firstWrong = lc.firstWrong
		}
	}
	return res, nil
}

// runPart is one connection's closed loop until end.
func (r *tcpRun) runPart(lc *loadConn, end time.Time) error {
	for n := 0; !lc.lost; n++ {
		now := time.Now()
		if !now.Before(end) {
			return nil
		}
		if n%256 == 0 && r.ctx.Err() != nil {
			return r.ctx.Err()
		}
		o := lc.stream.next()
		var out outcome
		var oerr error
		var pairs int
		switch o.kind {
		case opGet:
			out, oerr = lc.conn.get(lc.m, o.key)
		case opSet:
			out, oerr = lc.conn.set(lc.m, o.key)
		case opDel:
			out, oerr = lc.conn.del(lc.m, o.key)
		case opScan:
			pairs, _, oerr = lc.conn.scan([]*model{lc.m}, o.key, o.key+r.w.scanWidth, r.w.scanLimit)
			switch {
			case oerr == nil:
				out = okReply
			case isCheckError(oerr):
				out = wrongReply
			default:
				out = lostReply
			}
		}
		lat := int64(time.Since(now))
		lc.ops++
		switch out {
		case okReply:
			lc.part.ok++
			switch o.kind {
			case opGet:
				lc.part.get = append(lc.part.get, lat)
			case opSet, opDel:
				lc.part.write = append(lc.part.write, lat)
			case opScan:
				lc.part.scan = append(lc.part.scan, lat)
				lc.scanPairs += pairs
			}
		case wrongReply:
			lc.failed++
			lc.wrong++
			if lc.firstWrong == nil {
				lc.firstWrong = oerr
			}
		case shedReply:
			lc.failed++
		case lostReply:
			// The connection is gone; its last op's fate is unknown
			// and the model says so. The other connection goes on.
			lc.failed++
			lc.lost = true
			fmt.Fprintf(os.Stderr, "perfbench: connection %d lost: %v\n", lc.idx, oerr)
		}
	}
	return nil
}

// runDirFor names the per-process directory holding this run's WAL
// directories. A run that was SIGKILLed cannot remove its own; the next
// run sweeps every directory whose owner process is gone.
func runDirFor(buildDir string) (string, error) {
	root := filepath.Join(buildDir, "runs")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		return "", err
	}
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid == os.Getpid() || processAlive(pid) {
			continue
		}
		if err := os.RemoveAll(filepath.Join(root, e.Name())); err != nil {
			return "", fmt.Errorf("removing a killed run's directory: %w", err)
		}
	}
	dir := filepath.Join(root, strconv.Itoa(os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}
