package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	citrus "github.com/go-citrus/citrus"
	"github.com/go-citrus/citrus/internal/snapshot"
	"github.com/go-citrus/citrus/internal/wal"
	"github.com/go-citrus/citrus/rcu"
)

// replayConfig records how the replay configures the layers, so any
// drift from kvserver's own configuration shows in the report.
type replayConfig struct {
	Stores        []string `json:"stores"`
	Flavor        string   `json:"flavor"`
	Reclaimer     string   `json:"reclaimer"`
	Deletes       string   `json:"deletes"`
	WAL           string   `json:"wal,omitempty"`
	SnapshotEvery int      `json:"snapshot_every,omitempty"`
	Goroutines    int      `json:"goroutines"`
	OpsPerConn    int      `json:"ops_per_connection"`
	TraceChunk    int      `json:"trace_chunk_ops"`
	Notes         []string `json:"notes"`
}

// The layer settings kvserver uses at its defaults.
const (
	reclaimHigh   = 1024
	reclaimCap    = 8192
	snapshotEvery = 10000
	scanBatch     = 512
)

// traceChunk is the interleaving unit of the tracing-overhead
// measurement: each goroutine alternates traced and untraced chunks of
// this many ops over the same store, so both halves see the same state.
const traceChunk = 1000

// dict is the handle surface shared by citrus.Handle and
// citrus.ForestHandle.
type dict interface {
	Get(key int64) (string, bool)
	Insert(key int64, value string) bool
	DeleteCtx(ctx context.Context, key int64) (bool, error)
	RangeScanLimit(lo, hi int64, limit int, fn func(key int64, value string) bool)
	ScanBatched(batch int, fn func(key int64, value string) bool)
	Close()
}

// layerStore is one tree or forest built as kvserver builds its store,
// over the tracing RCU wrapper.
type layerStore struct {
	layer     string // "tree" or "forest": the span name prefix
	newHandle func() dict
	height    func() int
	barrier   func()
	close     func()
}

func newLayerStore(layer string, shards int, t *tracer) *layerStore {
	recOpts := []rcu.ReclaimerOption{rcu.WithHighWatermark(reclaimHigh), rcu.WithHardCap(reclaimCap)}
	if layer == "tree" {
		dom := &tracedFlavor{inner: rcu.NewDomain(), t: t}
		rec := rcu.NewReclaimer(dom, recOpts...)
		tree := citrus.NewWithRecycling[int64, string](dom, rec)
		return &layerStore{
			layer:     layer,
			newHandle: func() dict { return tree.NewHandle() },
			height:    tree.Height,
			barrier:   rec.Barrier,
			close:     rec.Close,
		}
	}
	f := citrus.NewForest[int64, string](shards,
		citrus.WithShardFlavor[int64](func() rcu.Flavor { return &tracedFlavor{inner: rcu.NewDomain(), t: t} }),
		citrus.WithShardReclaimerOptions[int64](recOpts...))
	return &layerStore{
		layer:     layer,
		newHandle: func() dict { return f.NewHandle() },
		height:    func() int { return -1 },
		barrier:   f.Barrier,
		close:     f.Close,
	}
}

// spanHandle wraps every call into the store's handle in a span.
type spanHandle struct {
	d                      dict
	rec                    *recorder
	get, insert, del, scan string
}

func (s *layerStore) handle(rec *recorder) *spanHandle {
	return &spanHandle{d: s.newHandle(), rec: rec,
		get: s.layer + ".get", insert: s.layer + ".insert", del: s.layer + ".delete", scan: s.layer + ".scan"}
}

func (h *spanHandle) Get(key int64) (string, bool) {
	id := h.rec.begin(h.get)
	v, ok := h.d.Get(key)
	h.rec.end(id)
	return v, ok
}

func (h *spanHandle) Insert(key int64, value string) bool {
	id := h.rec.begin(h.insert)
	ok := h.d.Insert(key, value)
	h.rec.end(id)
	return ok
}

// Delete runs without a deadline. kvserver bounds deletes with
// -optimeout, which runs the same grace period on a helper goroutine;
// here it stays on the caller, nested under its delete span.
func (h *spanHandle) Delete(key int64) bool {
	id := h.rec.begin(h.del)
	ok, _ := h.d.DeleteCtx(context.Background(), key)
	h.rec.end(id)
	return ok
}

func (h *spanHandle) Scan(lo, hi int64, limit int) int {
	id := h.rec.begin(h.scan)
	n := 0
	h.d.RangeScanLimit(lo, hi, limit, func(int64, string) bool { n++; return true })
	h.rec.end(id)
	return n
}

// durability is the WAL and snapshot layers as kvserver's durable store
// drives them: apply, append, wait for durability; a fuzzy snapshot on
// a background goroutine every snapshotEvery logged writes.
type durability struct {
	log       *wal.Log
	dir       string
	store     *layerStore
	t         *tracer
	sinceSnap atomic.Int64
	snapc     chan struct{}
	done      chan struct{}
	errMu     sync.Mutex
	err       error
}

func openDurability(dir string, store *layerStore, t *tracer, sinceSnap int64) (*durability, error) {
	l, _, err := wal.Open(dir, wal.Options{Policy: wal.PolicyGroup})
	if err != nil {
		return nil, err
	}
	d := &durability{log: l, dir: dir, store: store, t: t, snapc: make(chan struct{}, 1), done: make(chan struct{})}
	d.sinceSnap.Store(sinceSnap)
	go d.snapshotter()
	return d, nil
}

// logged appends an effective write's record and waits until it is
// durable, each call a span.
func (d *durability) logged(rec *recorder, payload []byte) error {
	id := rec.begin("wal.append")
	lsn, err := d.log.Append(payload)
	rec.end(id)
	if err != nil {
		return err
	}
	if d.sinceSnap.Add(1) >= snapshotEvery {
		select {
		case d.snapc <- struct{}{}:
		default:
		}
	}
	id = rec.begin("wal.wait_durable")
	err = d.log.WaitDurable(lsn)
	rec.end(id)
	return err
}

func (d *durability) snapshotter() {
	defer close(d.done)
	for range d.snapc {
		if err := d.snapshotOnce(); err != nil {
			d.errMu.Lock()
			d.err = errors.Join(d.err, err)
			d.errMu.Unlock()
		}
	}
}

// snapshotOnce follows kvserver's snapshotOnce: capture the tail LSN,
// cut the segment, write the batched scan, barrier, publish, truncate.
func (d *durability) snapshotOnce() error {
	d.sinceSnap.Store(0)
	lsn := d.log.TailLSN()
	if err := d.log.Cut(); err != nil {
		return err
	}
	h := d.store.newHandle()
	start := time.Now()
	file, keys, err := snapshot.Write(d.dir, uint64(lsn), func(emit func(int64, string) error) error {
		var emitErr error
		h.ScanBatched(scanBatch, func(k int64, v string) bool {
			emitErr = emit(k, v)
			return emitErr == nil
		})
		return emitErr
	})
	d.t.background("snapshot.write", start)
	h.Close()
	if err != nil {
		return err
	}
	d.store.barrier()
	if err := snapshot.Publish(d.dir, file, uint64(lsn), keys); err != nil {
		return err
	}
	_, err = d.log.TruncateBefore(lsn)
	return err
}

func (d *durability) close() error {
	close(d.snapc)
	<-d.done
	d.errMu.Lock()
	err := d.err
	d.errMu.Unlock()
	return errors.Join(err, d.log.Close())
}

// The WAL record encoding of examples/kvserver/durable.go: one op byte,
// the key little-endian, then the value for a SET.
func encodeSet(key int64, value string) []byte {
	rec := make([]byte, 9+len(value))
	rec[0] = 0x01
	binary.LittleEndian.PutUint64(rec[1:9], uint64(key))
	copy(rec[9:], value)
	return rec
}

func encodeDel(key int64) []byte {
	rec := make([]byte, 9)
	rec[0] = 0x02
	binary.LittleEndian.PutUint64(rec[1:9], uint64(key))
	return rec
}

// passResult is what one store's pass over the op streams recorded.
type passResult struct {
	recs     map[string]*recorder
	height   int
	traced   time.Duration // wall time of the traced chunks, summed over goroutines
	untraced time.Duration
	loadIdx  int32 // index of the snapshot.load span in recs["setup"], -1 if none
}

// runPass builds one store, brings it to the state the measured server
// starts its window in, replays each connection's op stream prefix on
// its own goroutine, and closes the store.
func runPass(ctx context.Context, cfg config, w *workload, layer string, shards int, dir string, durable bool) (*passResult, error) {
	t := newTracer()
	pr := &passResult{recs: map[string]*recorder{"background": t.bg}, loadIdx: -1}
	setupRec := newRecorder(t.epoch)
	setupRec.on = true
	pr.recs["setup"] = setupRec
	detach := t.attach(setupRec)
	defer detach()

	store := newLayerStore(layer, shards, t)
	defer func() { store.close() }()
	models := []*model{newModel(w, 0), newModel(w, 1)}
	if err := prefillStore(store, w, cfg.seed, models); err != nil {
		return nil, err
	}
	if w.snapshotWait {
		// The measured server recovered from a snapshot of the prefill:
		// write that snapshot, then load it into a fresh store as
		// recovery does — inserts in ascending key order.
		if err := writeSnapshot(store, dir, setupRec, uint64(w.resident)); err != nil {
			return nil, err
		}
		store.close()
		store = newLayerStore(layer, shards, t)
		h := store.handle(setupRec)
		id := setupRec.begin("snapshot.load")
		_, _, err := snapshot.Load(dir, func(k int64, v string) error {
			if !h.Insert(k, v) {
				return fmt.Errorf("snapshot key %d already present", k)
			}
			return nil
		})
		setupRec.end(id)
		h.d.Close()
		if err != nil {
			return nil, err
		}
		pr.loadIdx = id
	}
	var dur *durability
	if durable {
		walDir := filepath.Join(dir, "wal")
		var since int64
		if !w.snapshotWait {
			since = int64(w.resident) // the measured server replayed the prefill from its WAL
		}
		var err error
		if dur, err = openDurability(walDir, store, t, since); err != nil {
			return nil, err
		}
		defer func() {
			if dur != nil {
				dur.close() //nolint:errcheck // error path only; success closes and checks below
			}
		}()
	}

	verify := func(name string) {
		rec := newRecorder(t.epoch)
		rec.on = true
		pr.recs[name] = rec
		detach := t.attach(rec)
		h := store.handle(rec)
		for lo := int64(0); lo < w.keyspace; {
			lo = verifyScanNext(h, lo, w.keyspace)
		}
		h.d.Close()
		detach()
	}
	verify("verify-before")

	var mu sync.Mutex
	err := forEachConn(func(c int) error {
		rec := newRecorder(t.epoch)
		detach := t.attach(rec)
		defer detach()
		h := store.handle(rec)
		defer h.d.Close()
		stream := newOpStream(w, cfg.seed, c)
		m := models[c]
		var traced, untraced time.Duration
		chunkStart := time.Now()
		var val []byte
		for i := 0; i < w.replayOps; i++ {
			if i%traceChunk == 0 {
				if i > 0 {
					if rec.on {
						traced += time.Since(chunkStart)
					} else {
						untraced += time.Since(chunkStart)
					}
				}
				if ctx.Err() != nil {
					return ctx.Err()
				}
				rec.on = (i/traceChunk)%2 == 0
				chunkStart = time.Now()
			}
			rec.op = int64(c)<<32 | int64(i)
			o := stream.next()
			idx := m.idx(o.key)
			switch o.kind {
			case opGet:
				h.Get(o.key)
			case opSet:
				val = appendValue(val[:0], o.key, m.gen[idx]+1)
				if h.Insert(o.key, string(val)) {
					m.gen[idx]++
					if dur != nil {
						if err := dur.logged(rec, encodeSet(o.key, string(val))); err != nil {
							return err
						}
					}
				}
			case opDel:
				if h.Delete(o.key) && dur != nil {
					if err := dur.logged(rec, encodeDel(o.key)); err != nil {
						return err
					}
				}
			case opScan:
				h.Scan(o.key, o.key+w.scanWidth, w.scanLimit)
			}
		}
		if rec.on {
			traced += time.Since(chunkStart)
		} else {
			untraced += time.Since(chunkStart)
		}
		rec.on = false
		mu.Lock()
		pr.recs[fmt.Sprintf("conn-%d", c)] = rec
		pr.traced += traced
		pr.untraced += untraced
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !w.restartVerify {
		verify("verify-after")
	}
	pr.height = store.height()
	if dur != nil {
		err := dur.close()
		dur = nil
		if err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// verifyScanNext reads one verification page starting at lo and returns
// where the next page starts.
func verifyScanNext(h *spanHandle, lo, hi int64) int64 {
	id := h.rec.begin(h.scan)
	n, last := 0, lo
	h.d.RangeScanLimit(lo, hi, verifyPage, func(k int64, _ string) bool { n++; last = k; return true })
	h.rec.end(id)
	if n < verifyPage {
		return hi
	}
	return last + 1
}

// prefillStore inserts the resident keys, each connection's share on its
// own goroutine in the same seeded order the TCP prefill uses.
func prefillStore(store *layerStore, w *workload, seed uint64, models []*model) error {
	return forEachConn(func(c int) error {
		h := store.newHandle()
		defer h.Close()
		val := make([]byte, 0, valueLen)
		m := models[c]
		for _, key := range prefillOrder(w, seed, c) {
			i := m.idx(key)
			val = appendValue(val[:0], key, m.gen[i]+1)
			if !h.Insert(key, string(val)) {
				return fmt.Errorf("replay prefill: key %d already present", key)
			}
			m.gen[i]++
			m.present[i] = true
		}
		return nil
	})
}

func writeSnapshot(store *layerStore, dir string, rec *recorder, lsn uint64) error {
	h := store.newHandle()
	defer h.Close()
	id := rec.begin("snapshot.write")
	file, keys, err := snapshot.Write(dir, lsn, func(emit func(int64, string) error) error {
		var emitErr error
		h.ScanBatched(scanBatch, func(k int64, v string) bool {
			emitErr = emit(k, v)
			return emitErr == nil
		})
		return emitErr
	})
	rec.end(id)
	if err != nil {
		return err
	}
	return snapshot.Publish(dir, file, lsn, keys)
}

// replay runs the traced in-process replay: the workload's primary store
// as kvserver configures it (with the WAL and snapshots on durable
// workloads), then the other store layer in memory on the same streams,
// and derives the per-layer metrics from the spans.
func replay(ctx context.Context, cfg config, w *workload, runDir string, rep *report) error {
	// The other layer runs with one shard: for point-read and
	// restart-read that is the 1-shard forest the ROADMAP proposes in
	// place of kvserver's treeStore.
	primary, secondary := "tree", "forest"
	if w.shards > 1 {
		primary, secondary = "forest", "tree"
	}
	rep.Replay = &replayConfig{
		Stores: []string{
			fmt.Sprintf("%s (%d shard(s), as kvserver runs this workload)", primary, w.shards),
			secondary + " (1 shard, in memory, same op streams)",
		},
		Flavor:     "rcu.NewDomain, one per tree/shard, wrapped by the span recorder",
		Reclaimer:  fmt.Sprintf("citrus.NewWithRecycling / NewForest shards: rcu.NewReclaimer(WithHighWatermark(%d), WithHardCap(%d))", reclaimHigh, reclaimCap),
		Deletes:    "DeleteCtx without a deadline (kvserver: -optimeout 2s)",
		Goroutines: numConns,
		OpsPerConn: w.replayOps,
		TraceChunk: traceChunk,
		Notes: []string{
			"no stripe lock around apply+append: each goroutine owns its keys, which is all per-key log order needs",
		},
	}
	if w.durable {
		rep.Replay.WAL = "wal.PolicyGroup; apply, Append, WaitDurable per effective write"
		rep.Replay.SnapshotEvery = snapshotEvery
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	pause0 := ms.PauseTotalNs
	stopSampler, peakHeap := heapSampler()

	pdir := filepath.Join(runDir, "replay-primary")
	sdir := filepath.Join(runDir, "replay-secondary")
	for _, d := range []string{pdir, sdir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	p, err := runPass(ctx, cfg, w, primary, w.shards, pdir, w.durable)
	if err != nil {
		stopSampler()
		return fmt.Errorf("%s pass: %w", primary, err)
	}
	s, err := runPass(ctx, cfg, w, secondary, 1, sdir, false)
	stopSampler()
	if err != nil {
		return fmt.Errorf("%s pass: %w", secondary, err)
	}
	runtime.ReadMemStats(&ms)

	layers := map[string]*passResult{primary: p, secondary: s}
	for layer, pr := range layers {
		ops := opSpanStats(pr, layer)
		rep.Layer[layer+".get_ns"] = metric{ops[".get"], "ns"}
		rep.Layer[layer+".insert_ns"] = metric{ops[".insert"], "ns"}
		rep.Layer[layer+".delete_ns"] = metric{ops[".delete"], "ns"}
		if layer == "forest" {
			rep.Layer["forest.scan_us"] = metric{ops[".scan"] / 1e3, "us"}
		} else {
			rep.Extra["tree.scan_us"] = metric{ops[".scan"] / 1e3, "us"}
		}
	}
	rep.Layer["tree.height"] = metric{float64(layers["tree"].height), "nodes"}

	rcuStats(p, rep)
	rep.Layer["replay.tracing_overhead_ratio"] = metric{ratio(float64(p.traced), float64(p.untraced)), "ratio"}
	rep.Layer["replay.gc_pause_ms"] = metric{float64(ms.PauseTotalNs-pause0) / 1e6, "ms"}
	rep.Layer["replay.heap_peak_mb"] = metric{peakHeap() / (1 << 20), "MB"}

	if w.durable {
		all := allSpans(p)
		rep.Extra["wal.append_us"] = metric{medianDur(all, "wal.append") / 1e3, "us"}
		rep.Extra["wal.wait_durable_us"] = metric{medianDur(all, "wal.wait_durable") / 1e3, "us"}
		rep.Extra["snapshot.write_ms"] = metric{medianDur(all, "snapshot.write") / 1e6, "ms"}
		rep.Extra["snapshot.replay_writes"] = metric{float64(countSpans(all, "snapshot.write")), "count"}
	}
	if p.loadIdx >= 0 {
		spans := p.recs["setup"].spans
		self := float64(selfTimes(spans)[p.loadIdx]) / 1e9
		load := spans[p.loadIdx]
		total := float64(load.end-load.start) / 1e9
		rep.Extra["snapshot.load_s"] = metric{total, "s"}
		rep.Extra["snapshot.load_self_s"] = metric{self, "s"}
		rep.Extra["snapshot.load_insert_s"] = metric{total - self, "s"}
	}

	out := filepath.Join(cfg.buildDir, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	recs := map[string]*recorder{}
	for layer, pr := range layers {
		for name, r := range pr.recs {
			recs[layer+"/"+name] = r
		}
	}
	path := filepath.Join(out, w.name+".spans.tsv.gz")
	header := fmt.Sprintf("perfbench %s seed=%d: spans of the traced replay, times in ns since each pass began", w.name, cfg.seed)
	if err := writeSpans(path, header, recs); err != nil {
		return err
	}
	rep.note("spans written to %s", path)
	return nil
}

// opSpanStats returns the median self time, in ns, of the store's
// top-level op spans by suffix (".get", ".insert", ...), over the op
// stream goroutines and the verification passes.
func opSpanStats(pr *passResult, layer string) map[string]float64 {
	self := map[string][]float64{}
	for name, r := range pr.recs {
		if name == "setup" || name == "background" {
			continue
		}
		st := selfTimes(r.spans)
		for i, s := range r.spans {
			if s.parent == -1 && len(s.name) > len(layer) && s.name[:len(layer)] == layer {
				suffix := s.name[len(layer):]
				self[suffix] = append(self[suffix], float64(st[i]))
			}
		}
	}
	out := map[string]float64{}
	for k, v := range self {
		out[k] = median(v)
	}
	return out
}

// rcuStats derives the RCU layer's metrics from the primary pass.
func rcuStats(p *passResult, rep *report) {
	var sections, syncs []float64
	var deletes, nestedSyncs int
	for name, r := range p.recs {
		var lock int64 = -1
		for _, s := range r.spans {
			switch s.name {
			case "rcu.read_lock":
				lock = s.end - s.start
			case "rcu.read_unlock":
				if lock >= 0 {
					sections = append(sections, float64(lock+s.end-s.start))
					lock = -1
				}
			case "rcu.synchronize":
				syncs = append(syncs, float64(s.end-s.start))
				if s.parent >= 0 && isDelete(r.spans[s.parent].name) {
					nestedSyncs++
				}
			}
			if s.parent == -1 && isDelete(s.name) && name != "setup" {
				deletes++
			}
		}
	}
	rep.Layer["rcu.read_section_ns"] = metric{median(sections), "ns"}
	rep.Layer["rcu.synchronize_us"] = metric{median(syncs) / 1e3, "us"}
	rep.Layer["rcu.synchronizes_per_delete"] = metric{ratio(float64(nestedSyncs), float64(deletes)), "ratio"}
	rep.Extra["rcu.synchronize_spans"] = metric{float64(len(syncs)), "count"}
}

func isDelete(name string) bool { return name == "tree.delete" || name == "forest.delete" }

func allSpans(pr *passResult) []span {
	var all []span
	for _, r := range pr.recs {
		all = append(all, r.spans...)
	}
	return all
}

func medianDur(spans []span, name string) float64 {
	var d []float64
	for _, s := range spans {
		if s.name == name {
			d = append(d, float64(s.end-s.start))
		}
	}
	return median(d)
}

func countSpans(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.name == name {
			n++
		}
	}
	return n
}

// heapSampler samples the live heap every 10ms until stopped and
// reports the peak in bytes.
func heapSampler() (stop func(), peak func() float64) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var max atomic.Uint64
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > max.Load() {
			max.Store(v)
		}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			read()
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	var once sync.Once
	return func() {
			once.Do(func() { close(quit); <-done; read() })
		}, func() float64 {
			return float64(max.Load())
		}
}
