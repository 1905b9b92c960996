package main

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/go-citrus/citrus/citrusstat/promtext"
	"github.com/go-citrus/citrus/rcu"
)

func TestSelfTimesSubtractTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{name: "op", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 30},
		{name: "b", parent: 0, start: 20, end: 40},  // overlaps a: the union counts once
		{name: "c", parent: 0, start: 90, end: 120}, // runs past the parent: clipped
		{name: "d", parent: 1, start: 12, end: 18},  // grandchild: a's child, not op's
		{name: "other", parent: -1, start: 200, end: 250},
	}
	got := selfTimes(spans)
	want := []int64{100 - 30 - 10, 20 - 6, 20, 30, 6, 50}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].name, got[i], want[i])
		}
	}
}

func TestCovered(t *testing.T) {
	cases := []struct {
		iv     [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[][2]int64{{5, 8}, {1, 3}}, 0, 10, 5},
		{[][2]int64{{1, 5}, {2, 3}, {4, 9}}, 0, 10, 8},
		{[][2]int64{{-5, 2}, {8, 20}}, 0, 10, 4},
		{[][2]int64{{11, 12}}, 0, 10, 0},
	}
	for _, c := range cases {
		if got := covered(c.iv, c.lo, c.hi); got != c.want {
			t.Errorf("covered(%v, %d, %d) = %d, want %d", c.iv, c.lo, c.hi, got, c.want)
		}
	}
}

func TestRecorderNestsByCallOrder(t *testing.T) {
	r := newRecorder(time.Now())
	if id := r.begin("off"); id != -1 {
		t.Fatalf("a recorder that is off recorded span %d", id)
	}
	r.on = true
	r.op = 7
	outer := r.begin("outer")
	inner := r.begin("inner")
	r.end(inner)
	sibling := r.begin("sibling")
	r.end(sibling)
	r.end(outer)
	if len(r.spans) != 3 || r.spans[inner].parent != outer || r.spans[sibling].parent != outer || r.spans[outer].parent != -1 {
		t.Fatalf("spans %+v: want outer with two children", r.spans)
	}
	for _, s := range r.spans {
		if s.op != 7 || s.end < s.start {
			t.Errorf("span %+v: want op 7 and end ≥ start", s)
		}
	}
	var none *recorder
	none.end(none.begin("nil recorders record nothing"))
}

// The RCU wrapper's spans nest under the span open on the goroutine that
// called into the flavor; calls from goroutines nobody traces land in
// the background recorder as roots.
func TestTracedFlavorAttributesSpans(t *testing.T) {
	tr := newTracer()
	rec := newRecorder(tr.epoch)
	rec.on = true
	detach := tr.attach(rec)
	defer detach()
	f := &tracedFlavor{inner: rcu.NewDomain(), t: tr}
	r := f.Register()
	defer r.Unregister()

	op := rec.begin("tree.get")
	r.ReadLock()
	r.ReadUnlock()
	f.Synchronize()
	rec.end(op)
	names := []string{}
	for _, s := range rec.spans {
		names = append(names, s.name)
		if s.name != "tree.get" && s.parent != op {
			t.Errorf("span %s has parent %d, want the op span %d", s.name, s.parent, op)
		}
	}
	if got := strings.Join(names, ","); got != "tree.get,rcu.read_lock,rcu.read_unlock,rcu.synchronize" {
		t.Fatalf("spans %s", got)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); f.Synchronize() }()
	wg.Wait()
	if n := len(tr.bg.spans); n != 1 || tr.bg.spans[0].name != "rcu.synchronize" || tr.bg.spans[0].parent != -1 {
		t.Fatalf("background spans %+v, want one root rcu.synchronize", tr.bg.spans)
	}
}

// A two-child delete waits out a grace period inside the tree: with the
// wrapper handed to the tree, that wait is a child span, and the
// delete's self time excludes it.
func TestTreeDeleteSelfTimeExcludesGracePeriod(t *testing.T) {
	tr := newTracer()
	rec := newRecorder(tr.epoch)
	detach := tr.attach(rec)
	defer detach()
	store := newLayerStore("tree", 1, tr)
	defer store.close()
	h := store.handle(rec)
	defer h.d.Close()
	for _, k := range []int64{50, 25, 75, 60, 90} {
		h.Insert(k, "v")
	}
	rec.on = true
	if !h.Delete(50) { // two children: 25 and 75
		t.Fatal("delete 50 failed")
	}
	var del int32 = -1
	var sync []span
	for i, s := range rec.spans {
		switch s.name {
		case "tree.delete":
			del = int32(i)
		case "rcu.synchronize":
			sync = append(sync, s)
		}
	}
	if del < 0 || len(sync) != 1 || sync[0].parent != del {
		t.Fatalf("spans %+v: want one rcu.synchronize under tree.delete", rec.spans)
	}
	self := selfTimes(rec.spans)[del]
	d := rec.spans[del]
	if want := d.end - d.start - (sync[0].end - sync[0].start); self > want {
		t.Fatalf("delete self time %d includes the grace period (at most %d)", self, want)
	}
	if _, ok := h.Get(50); ok {
		t.Fatal("key 50 still present")
	}
}

func TestSpanHandleCoversForest(t *testing.T) {
	tr := newTracer()
	rec := newRecorder(tr.epoch)
	rec.on = true
	detach := tr.attach(rec)
	defer detach()
	store := newLayerStore("forest", 4, tr)
	defer store.close()
	h := store.handle(rec)
	defer h.d.Close()
	for k := int64(0); k < 64; k++ {
		h.Insert(k, "v")
	}
	if n := h.Scan(10, 20, 5); n != 5 {
		t.Fatalf("forest scan returned %d pairs, want 5", n)
	}
	ok, _ := h.d.DeleteCtx(context.Background(), 3)
	if !ok {
		t.Fatal("delete 3 failed")
	}
	counts := map[string]int{}
	for _, s := range rec.spans {
		counts[s.name]++
	}
	if counts["forest.insert"] != 64 || counts["forest.scan"] != 1 || counts["rcu.read_lock"] == 0 {
		t.Fatalf("span counts %v", counts)
	}
}

func TestHistQuantileInterpolatesInsideTheBucket(t *testing.T) {
	parse := func(s string) promtext.Metrics {
		m, err := promtext.Parse(strings.NewReader(s))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	before := parse(`# TYPE h histogram
h_bucket{le="1"} 0
h_bucket{le="2"} 0
h_bucket{le="+Inf"} 0
h_sum 0
h_count 0
`)
	// 10 new observations in (2, 4], 10 in (4, 8]; the encoder trimmed
	// nothing here, and the median sits at the top of the (2, 4] bucket.
	after := parse(`# TYPE h histogram
h_bucket{le="1"} 0
h_bucket{le="2"} 0
h_bucket{le="4"} 10
h_bucket{le="8"} 20
h_bucket{le="+Inf"} 20
h_sum 100
h_count 20
`)
	if got, n := histQuantile(before, after, 0.5, "h"); got != 4 || n != 20 {
		t.Fatalf("p50 = %v over %v observations, want 4 over 20", got, n)
	}
	if got, _ := histQuantile(before, after, 0.75, "h"); got != 6 {
		t.Fatalf("p75 = %v, want 6 (halfway through (4, 8])", got)
	}
	// The encoder trims empty top buckets, so the first scrape lacks the
	// bounds the second has: there its count at those bounds is its total.
	// Two series are summed, picked by label.
	before = parse(`# TYPE h histogram
h_bucket{op="a",le="1"} 4
h_bucket{op="a",le="+Inf"} 4
h_sum{op="a"} 2
h_count{op="a"} 4
h_bucket{op="b",le="1"} 0
h_bucket{op="b",le="+Inf"} 0
h_sum{op="b"} 0
h_count{op="b"} 0
h_bucket{op="c",le="1"} 9
h_bucket{op="c",le="+Inf"} 9
h_sum{op="c"} 9
h_count{op="c"} 9
`)
	after = parse(`# TYPE h histogram
h_bucket{op="a",le="1"} 4
h_bucket{op="a",le="2"} 4
h_bucket{op="a",le="4"} 8
h_bucket{op="a",le="+Inf"} 8
h_sum{op="a"} 20
h_count{op="a"} 8
h_bucket{op="b",le="1"} 0
h_bucket{op="b",le="2"} 4
h_bucket{op="b",le="+Inf"} 4
h_sum{op="b"} 6
h_count{op="b"} 4
h_bucket{op="c",le="1"} 100
h_bucket{op="c",le="+Inf"} 100
h_sum{op="c"} 100
h_count{op="c"} 100
`)
	// Gained: a has 4 in (2, 4], b has 4 in (1, 2]; c is not selected.
	got, n := histQuantile(before, after, 0.5, "h", []string{"op", "a"}, []string{"op", "b"})
	if got != 2 || n != 8 {
		t.Fatalf("merged p50 = %v over %v observations, want 2 over 8", got, n)
	}
}

// The replay's op stream and prefill are pure functions of the seed, so
// the TCP run and the replay see the same inputs.
func TestStreamsAreSeeded(t *testing.T) {
	w, err := lookupWorkload("durable-churn")
	if err != nil {
		t.Fatal(err)
	}
	a, b := newOpStream(w, 9, 1), newOpStream(w, 9, 1)
	kinds := map[int]int{}
	for i := 0; i < 10000; i++ {
		x, y := a.next(), b.next()
		if x != y {
			t.Fatalf("op %d: %+v vs %+v", i, x, y)
		}
		if x.kind != opScan && x.key%numConns != 1 {
			t.Fatalf("connection 1 drew key %d it does not own", x.key)
		}
		kinds[x.kind]++
	}
	if kinds[opScan] < 800 || kinds[opScan] > 1200 {
		t.Fatalf("op mix %v, want ~10%% scans", kinds)
	}
	p := prefillOrder(w, 9, 0)
	if len(p) != w.resident/numConns || p[0] == 0 && p[1] == 2 {
		t.Fatalf("prefill order %v...: want a random permutation of %d keys", p[:4], w.resident/numConns)
	}
}

func TestValuesCarryKeyAndGeneration(t *testing.T) {
	v := appendValue(nil, 1234, 56)
	if string(v) != "k0001234.g0000056" || len(v) != valueLen {
		t.Fatalf("value %q", v)
	}
	if !valueKeyMatches(v, 1234) || valueKeyMatches(v, 1235) {
		t.Fatal("valueKeyMatches disagrees with appendValue")
	}
}

// A small durable replay exercises the traced stores, the WAL, the
// snapshotter and the background recorder from several goroutines at
// once; run it under -race. Its prefill alone trips the first snapshot,
// as the prefill replayed from the WAL does on kvserver.
func TestReplayPassOnASmallDurableWorkload(t *testing.T) {
	w := workload{name: "small", keyspace: 20_000, resident: snapshotEvery, mix: [4]int{40, 25, 25, 10},
		scanWidth: 100, scanLimit: 10, shards: 4, durable: true, restartVerify: true, replayOps: 3000}
	cfg := config{seed: 3}
	for _, layer := range []string{"forest", "tree"} {
		pr, err := runPass(context.Background(), cfg, &w, layer, 4, t.TempDir(), true)
		if err != nil {
			t.Fatalf("%s pass: %v", layer, err)
		}
		ops := opSpanStats(pr, layer)
		if ops[".get"] <= 0 || ops[".insert"] <= 0 || ops[".delete"] <= 0 || ops[".scan"] <= 0 {
			t.Fatalf("%s pass: median self times %v", layer, ops)
		}
		all := allSpans(pr)
		if countSpans(all, "wal.append") == 0 || countSpans(all, "snapshot.write") == 0 {
			t.Fatalf("%s pass: no WAL or snapshot spans", layer)
		}
		if pr.traced <= 0 || pr.untraced <= 0 {
			t.Fatalf("%s pass: traced %v untraced %v", layer, pr.traced, pr.untraced)
		}
	}
}
