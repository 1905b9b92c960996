package main

import (
	"bufio"
	"cmp"
	"compress/gzip"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/go-citrus/citrus/rcu"
)

// A span is one call into a layer's public function.
type span struct {
	name   string
	parent int32 // index of the enclosing span in the same recorder, -1 for none
	op     int64 // the replayed op this call served, -1 outside the op stream
	start  int64 // ns since the tracer's epoch
	end    int64
}

// recorder holds one goroutine's spans in memory. Spans nest by call
// order: a span begun while another is open is its child. A recorder is
// owned by one goroutine; only the tracer's background recorder is
// shared, behind its mutex. A nil *recorder records nothing, so the
// layer wrappers work on goroutines nobody traces.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int32
	op    int64
	on    bool
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch, op: -1} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span and returns its index, or -1 when not recording.
func (r *recorder) begin(name string) int32 {
	if r == nil || !r.on {
		return -1
	}
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{name: name, parent: parent, op: r.op, start: r.now()})
	id := int32(len(r.spans) - 1)
	r.stack = append(r.stack, id)
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int32) {
	if id < 0 {
		return
	}
	r.spans[id].end = r.now()
	r.stack = r.stack[:len(r.stack)-1]
}

// selfTimes returns each span's duration minus the union of its child
// spans' intervals, clipped to the span: the time the layer spent in
// its own code rather than in the layers it called.
func selfTimes(spans []span) []int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(children[int32(i)], s.start, s.end)
	}
	return self
}

// covered is the length of the union of intervals, clipped to [lo, hi).
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = slices.Clone(iv)
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, v := range iv {
		a, b := max(v[0], lo), min(v[1], hi)
		if a >= b {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			total += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// tracer maps goroutines to their recorders for the RCU wrapper, which
// is called by library code that cannot pass one along: the tree calls
// Flavor.Synchronize on the deleting goroutine, the reclaimer on its
// own. Calls from goroutines without a recorder land, as root spans, in
// the shared background recorder.
type tracer struct {
	epoch time.Time
	mu    sync.RWMutex
	byG   map[uint64]*recorder
	bgMu  sync.Mutex
	bg    *recorder
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), byG: map[uint64]*recorder{}}
	t.bg = newRecorder(t.epoch)
	t.bg.on = true
	return t
}

// attach binds the calling goroutine to rec until the returned func runs.
func (t *tracer) attach(rec *recorder) (detach func()) {
	g := goid()
	t.mu.Lock()
	t.byG[g] = rec
	t.mu.Unlock()
	return func() {
		t.mu.Lock()
		delete(t.byG, g)
		t.mu.Unlock()
	}
}

func (t *tracer) current() *recorder {
	g := goid()
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.byG[g]
}

// background records a root span from a goroutine without a recorder.
func (t *tracer) background(name string, start time.Time) {
	t.bgMu.Lock()
	t.bg.spans = append(t.bg.spans, span{name: name, parent: -1, op: -1,
		start: int64(start.Sub(t.epoch)), end: int64(time.Since(t.epoch))})
	t.bgMu.Unlock()
}

// goid is the calling goroutine's id, parsed from its stack header
// ("goroutine 123 [running]:"). It costs about a microsecond, so the
// wrappers call it only on rare paths: Register and Synchronize.
func goid() uint64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	b := buf[len("goroutine "):n]
	var id uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// tracedFlavor wraps an RCU flavor so every ReadLock, ReadUnlock and
// Synchronize is a span. Handing it to the tree and to its reclaimer
// makes the tree's self time exclude the read-side calls and grace
// periods nested inside its operations.
type tracedFlavor struct {
	inner rcu.Flavor
	t     *tracer
}

func (f *tracedFlavor) Register() rcu.Reader {
	return &tracedReader{inner: f.inner.Register(), rec: f.t.current(), t: f.t}
}

func (f *tracedFlavor) Synchronize() { synchronize(f.t, f.inner.Synchronize) }

func synchronize(t *tracer, wait func()) {
	if rec := t.current(); rec != nil {
		id := rec.begin("rcu.synchronize")
		wait()
		rec.end(id)
		return
	}
	start := time.Now()
	wait()
	t.background("rcu.synchronize", start)
}

// tracedReader is one handle's reader, bound to the recorder of the
// goroutine that registered it.
type tracedReader struct {
	inner rcu.Reader
	rec   *recorder
	t     *tracer
}

func (r *tracedReader) ReadLock() {
	id := r.rec.begin("rcu.read_lock")
	r.inner.ReadLock()
	r.rec.end(id)
}

func (r *tracedReader) ReadUnlock() {
	id := r.rec.begin("rcu.read_unlock")
	r.inner.ReadUnlock()
	r.rec.end(id)
}

func (r *tracedReader) Synchronize() { synchronize(r.t, r.inner.Synchronize) }
func (r *tracedReader) Unregister()  { r.inner.Unregister() }

// writeSpans dumps every recorder's spans as gzipped TSV: recorder,
// index, parent, op, name, start_ns, end_ns.
func writeSpans(path string, header string, recs map[string]*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(zw)
	fmt.Fprintf(bw, "# %s\n# recorder\tspan\tparent\top\tname\tstart_ns\tend_ns\n", header)
	var line []byte
	for _, name := range sortedKeys(recs) {
		for i, s := range recs[name].spans {
			line = append(line[:0], name...)
			line = append(line, '\t')
			line = strconv.AppendInt(line, int64(i), 10)
			line = append(line, '\t')
			line = strconv.AppendInt(line, int64(s.parent), 10)
			line = append(line, '\t')
			line = strconv.AppendInt(line, s.op, 10)
			line = append(line, '\t')
			line = append(line, s.name...)
			line = append(line, '\t')
			line = strconv.AppendInt(line, s.start, 10)
			line = append(line, '\t')
			line = strconv.AppendInt(line, s.end, 10)
			line = append(line, '\n')
			bw.Write(line) //nolint:errcheck // the Flush below reports it
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
