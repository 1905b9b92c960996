package citrustrace

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultRingSize is the per-ring event capacity used when no
// WithRingSize option is given: 4096 events ≈ 2k operations of recent
// history per handle (an op span plus its satellite events), at 56 bytes
// a slot.
const DefaultRingSize = 4096

// A Recorder owns a set of event rings and a shared epoch, and produces
// merged flight-recorder snapshots. Create one with New, hand rings to
// writers with NewRing/SharedRing, and call Snapshot (or the Write*
// helpers) at any time, from any goroutine, concurrently with recording.
type Recorder struct {
	epoch    time.Time
	ringSize int

	mu     sync.Mutex
	rings  atomic.Pointer[[]*Ring] // copy-on-write, so Snapshot takes no lock
	shared map[string]*Ring
	nextID atomic.Uint32
}

// An Option configures a Recorder.
type Option func(*Recorder)

// WithRingSize sets the per-ring event capacity (rounded up to a power
// of two, minimum 8). Bigger rings hold a longer history window; each
// slot costs 56 bytes.
func WithRingSize(n int) Option {
	return func(r *Recorder) {
		size := 8
		for size < n {
			size <<= 1
		}
		r.ringSize = size
	}
}

// New returns an empty Recorder. Its epoch — the zero point of every
// event timestamp — is the moment of the call.
func New(opts ...Option) *Recorder {
	r := &Recorder{epoch: time.Now(), ringSize: DefaultRingSize}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// Epoch reports the recorder's time zero.
func (r *Recorder) Epoch() time.Time { return r.epoch }

// NewRing registers and returns a fresh ring. Each writer (tree handle,
// domain) should own one; label is surfaced in dumps and as
// the Chrome-trace thread name.
func (r *Recorder) NewRing(label string) *Ring {
	g := &Ring{
		label: label,
		rec:   r,
		mask:  uint64(r.ringSize - 1),
		slots: make([]slot, r.ringSize),
	}
	g.id = r.nextID.Add(1)
	r.mu.Lock()
	old := r.rings.Load()
	var rs []*Ring
	if old != nil {
		rs = make([]*Ring, len(*old), len(*old)+1)
		copy(rs, *old)
	}
	rs = append(rs, g)
	r.rings.Store(&rs)
	r.mu.Unlock()
	return g
}

// SharedRing returns the ring registered under label, creating it on
// first use. Multiple goroutines may record into it concurrently; the
// RCU domain tracer uses this.
func (r *Recorder) SharedRing(label string) *Ring {
	r.mu.Lock()
	if g, ok := r.shared[label]; ok {
		r.mu.Unlock()
		return g
	}
	r.mu.Unlock()
	// NewRing takes the lock itself; a race here at worst creates an
	// extra ring that loses the map slot below and stays registered but
	// unused — harmless, and shared rings are created once per label.
	g := r.NewRing(label)
	r.mu.Lock()
	if r.shared == nil {
		r.shared = make(map[string]*Ring)
	}
	if exist, ok := r.shared[label]; ok {
		g = exist
	} else {
		r.shared[label] = g
	}
	r.mu.Unlock()
	return g
}

// RingInfo describes one ring in a Trace. Shard is 0 except in traces
// built by MergeShards, where it names the ring's source shard.
type RingInfo struct {
	ID       uint32 `json:"id"`
	Label    string `json:"label"`
	Shard    int    `json:"shard,omitempty"`
	Recorded int64  `json:"recorded"` // events ever recorded
	Dropped  int64  `json:"dropped"`  // of those, overwritten before this snapshot
}

// A Trace is a merged flight-recorder snapshot: every ring's surviving
// events, time-ordered on the recorder's single clock. It is a plain
// value — safe to retain, serialize, and inspect without further
// synchronization.
type Trace struct {
	Epoch  time.Time  `json:"epoch"`
	Rings  []RingInfo `json:"rings,omitempty"`
	Events []Event    `json:"events"`
}

// Dropped sums the events overwritten (lost to ring wraparound) across
// all rings.
func (t Trace) Dropped() int64 {
	var n int64
	for _, ri := range t.Rings {
		n += ri.Dropped
	}
	return n
}

// Snapshot merges all rings into a time-ordered Trace. It runs
// concurrently with recording without blocking writers; events being
// overwritten during the scan are dropped, not torn.
func (r *Recorder) Snapshot() Trace {
	t := Trace{Epoch: r.epoch}
	rsp := r.rings.Load()
	if rsp == nil {
		return t
	}
	for _, g := range *rsp {
		before := len(t.Events)
		t.Events = g.snapshot(t.Events)
		rec := g.Recorded()
		t.Rings = append(t.Rings, RingInfo{
			ID:       g.id,
			Label:    g.label,
			Recorded: rec,
			Dropped:  rec - int64(len(t.Events)-before),
		})
	}
	sort.SliceStable(t.Events, func(i, j int) bool {
		if t.Events[i].Start != t.Events[j].Start {
			return t.Events[i].Start < t.Events[j].Start
		}
		return t.Events[i].Ring < t.Events[j].Ring
	})
	return t
}

// WriteJSON serializes the trace as one JSON object: epoch, per-ring
// metadata, and the time-ordered events.
func (t Trace) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(t)
}

// WriteJSON is shorthand for Snapshot().WriteJSON.
func (r *Recorder) WriteJSON(w io.Writer) error { return r.Snapshot().WriteJSON(w) }

// WriteChromeTrace is shorthand for Snapshot().WriteChromeTrace.
func (r *Recorder) WriteChromeTrace(w io.Writer) error { return r.Snapshot().WriteChromeTrace(w) }
