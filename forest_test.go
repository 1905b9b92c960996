package citrus

import (
	"context"
	"math/bits"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"github.com/go-citrus/citrus/rcu"
)

func TestForestBasicOps(t *testing.T) {
	f := NewForest[int, string](8)
	h := f.NewHandle()
	defer h.Close()

	if _, ok := h.Get(7); ok {
		t.Fatal("Get on empty forest = true")
	}
	if !h.Insert(7, "seven") || h.Insert(7, "again") {
		t.Fatal("Insert semantics broken")
	}
	if v, ok := h.Get(7); !ok || v != "seven" {
		t.Fatalf("Get(7) = (%q, %v)", v, ok)
	}
	if !h.Contains(7) || h.Contains(8) {
		t.Fatal("Contains semantics broken")
	}
	if !h.Delete(7) || h.Delete(7) {
		t.Fatal("Delete semantics broken")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestForestSpreadsKeysAcrossShards(t *testing.T) {
	const shards = 8
	f := NewForest[int, int](shards)
	h := f.NewHandle()
	defer h.Close()
	const n = 4096
	for k := 0; k < n; k++ {
		h.Insert(k, k)
	}
	if got := f.Len(); got != n {
		t.Fatalf("Len() = %d, want %d", got, n)
	}
	fs := f.Stats()
	empty := 0
	for i, s := range fs.Shards {
		if s.Inserts == 0 {
			empty++
			t.Logf("shard %d got no keys", i)
		}
	}
	// With 4096 hashed keys over 8 shards an empty shard means the
	// router is broken, not unlucky (p < 2^-256).
	if empty > 0 {
		t.Fatalf("%d of %d shards empty after %d hashed inserts", empty, shards, n)
	}
	if fs.Total.Inserts != n {
		t.Fatalf("Total.Inserts = %d, want %d", fs.Total.Inserts, n)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestForestSequentialOracle(t *testing.T) {
	f := NewForest[int, int](5)
	h := f.NewHandle()
	defer h.Close()
	oracle := map[int]int{}
	rng := rand.New(rand.NewSource(71))
	for i := 0; i < 30000; i++ {
		k := rng.Intn(700)
		switch rng.Intn(3) {
		case 0:
			_, present := oracle[k]
			if got := h.Insert(k, i); got == present {
				t.Fatalf("op %d: Insert(%d) = %v, present=%v", i, k, got, present)
			}
			if !present {
				oracle[k] = i
			}
		case 1:
			_, present := oracle[k]
			if got := h.Delete(k); got != present {
				t.Fatalf("op %d: Delete(%d) = %v, present=%v", i, k, got, present)
			}
			delete(oracle, k)
		default:
			wantV, wantOK := oracle[k]
			gotV, gotOK := h.Get(k)
			if gotOK != wantOK || (wantOK && gotV != wantV) {
				t.Fatalf("op %d: Get(%d) = (%d, %v), want (%d, %v)", i, k, gotV, gotOK, wantV, wantOK)
			}
		}
	}
	if got, want := f.Len(), len(oracle); got != want {
		t.Fatalf("Len() = %d, oracle %d", got, want)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Two forests with the same shard count must agree on routing — the
// property the process-wide partition seed exists for — and a key
// inserted through one lands in the shard the other names.
func TestForestRoutingStable(t *testing.T) {
	a, b := NewForest[string, int](4), NewForest[string, int](4)
	h := a.NewHandle()
	defer h.Close()
	for _, k := range []string{"", "a", "forest", "shard", "grace", "period", "citrus", "rcu"} {
		if sa, sb := a.shardFor(k), b.shardFor(k); sa != sb {
			t.Fatalf("forests disagree on %q: shard %d vs %d", k, sa, sb)
		}
		h.Insert(k, 0)
		if got := a.Stats().Shards[b.shardFor(k)].Inserts; got == 0 {
			t.Fatalf("%q is not in shard %d, where the other forest routes it", k, b.shardFor(k))
		}
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestForestConcurrentChurn(t *testing.T) {
	f := NewForest[int, int](4)
	{
		h := f.NewHandle()
		for k := 0; k < 128; k++ {
			h.Insert(-k-1, k) // negative keys are permanent
		}
		h.Close()
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	misses := make([]int, 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h := f.NewHandle()
			defer h.Close()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !h.Contains(-rng.Intn(128) - 1) {
					misses[r]++
				}
			}
		}(r)
	}
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			h := f.NewHandle()
			defer h.Close()
			base := w * 100000
			for k := base; k < base+20000; k++ {
				h.Insert(k, k)
				if k%2 == 0 {
					h.Delete(k)
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	for r, m := range misses {
		if m != 0 {
			t.Fatalf("reader %d missed permanent keys %d times", r, m)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	fs := f.Stats()
	if got := fs.Total.Inserts; got != 128+4*20000 {
		t.Fatalf("Total.Inserts = %d, want %d", got, 128+4*20000)
	}
}

func TestForestDeleteCtx(t *testing.T) {
	f := NewForest[int, int](2)
	h := f.NewHandle()
	defer h.Close()
	h.Insert(1, 1)
	ok, err := h.DeleteCtx(context.Background(), 1)
	if !ok || err != nil {
		t.Fatalf("DeleteCtx = (%v, %v)", ok, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ok, err = h.DeleteCtx(ctx, 2)
	if ok || err == nil {
		t.Fatalf("DeleteCtx with done ctx on absent key = (%v, %v)", ok, err)
	}
	h.Insert(3, 3)
	if ok, err := h.DeleteWithin(3, time.Second); !ok || err != nil {
		t.Fatalf("DeleteWithin = (%v, %v)", ok, err)
	}
	if ok, err := h.DeleteWithin(3, 0); ok || err != nil {
		t.Fatalf("unbounded DeleteWithin on absent key = (%v, %v)", ok, err)
	}
}

// The point of per-shard domains: a reader parked inside one shard's
// critical section must not delay grace periods — and therefore
// two-child deletes — on sibling shards.
func TestForestShardIsolation(t *testing.T) {
	const shards = 4
	f := NewForest[int, int](shards)

	// Park a reader inside shard 0's read-side critical section.
	r := f.Flavor(0).Register()
	r.ReadLock()
	defer func() {
		r.ReadUnlock()
		r.Unregister()
	}()

	// Drive two-child deletes through every OTHER shard: each needs an
	// inline grace period on its own domain. If isolation is broken
	// (one shared domain), these would block behind the parked reader.
	done := make(chan struct{})
	go func() {
		defer close(done)
		h := f.NewHandle()
		defer h.Close()
		for s := 1; s < shards; s++ {
			// The 24 smallest keys routed to shard s, ascending.
			var ks []int
			for k := 0; len(ks) < 24; k++ {
				if f.shardFor(k) == s {
					ks = append(ks, k)
				}
			}
			// Build two-child victims in shard s: per triple, each
			// above every key before it, insert the middle key first
			// so left and right become its children, then delete the
			// middle — a two-child delete, which pays an inline grace
			// period on shard s's domain.
			for i := 0; i < len(ks); i += 3 {
				left, mid, right := ks[i], ks[i+1], ks[i+2]
				h.Insert(mid, i)
				h.Insert(left, i)
				h.Insert(right, i)
				h.Delete(mid)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sibling-shard deletes blocked behind a reader parked in shard 0")
	}

	fs := f.Stats()
	// Positive control: the sibling shards really did run grace periods
	// while shard 0's reader was parked the whole time.
	advanced := int64(0)
	for s := 1; s < shards; s++ {
		if rs := fs.Shards[s].RCU; rs != nil {
			advanced += rs.Synchronizes
		}
	}
	if advanced == 0 {
		t.Fatal("no sibling grace periods completed — the test exercised nothing")
	}
}

// Stats folding must be exact across shards and hold its documented
// monotonicity while handles churn and close concurrently.
func TestForestStatsFold(t *testing.T) {
	f := NewForest[int, int](3)

	var wg sync.WaitGroup
	const workers, per = 4, 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := f.NewHandle()
			base := w * 10000
			for k := base; k < base+per; k++ {
				h.Insert(k, k)
				h.Contains(k)
				h.Delete(k)
			}
			h.Close()
		}(w)
	}
	statsStop := make(chan struct{})
	var statsWG sync.WaitGroup
	statsWG.Add(1)
	go func() {
		defer statsWG.Done()
		var last int64
		for {
			select {
			case <-statsStop:
				return
			default:
			}
			fs := f.Stats()
			tot := fs.Total.Contains + fs.Total.Inserts + fs.Total.Deletes
			if tot < last {
				panic("forest Total went backwards")
			}
			last = tot
		}
	}()
	wg.Wait()
	close(statsStop)
	statsWG.Wait()

	fs := f.Stats()
	if got, want := fs.Total.Inserts, int64(workers*per); got != want {
		t.Fatalf("Total.Inserts = %d, want %d", got, want)
	}
	if got, want := fs.Total.Contains, int64(workers*per); got != want {
		t.Fatalf("Total.Contains = %d, want %d", got, want)
	}
	if got, want := fs.Total.Deletes, int64(workers*per); got != want {
		t.Fatalf("Total.Deletes = %d, want %d", got, want)
	}
	var shardSum int64
	for _, s := range fs.Shards {
		shardSum += s.Inserts
	}
	if shardSum != fs.Total.Inserts {
		t.Fatalf("shard breakdown sums to %d, Total says %d", shardSum, fs.Total.Inserts)
	}
	if fs.Total.RCU == nil {
		t.Fatal("Total.RCU not folded")
	}
	var syncSum int64
	for _, s := range fs.Shards {
		if s.RCU != nil {
			syncSum += s.RCU.Synchronizes
		}
	}
	if fs.Total.RCU.Synchronizes != syncSum {
		t.Fatalf("Total.RCU.Synchronizes = %d, shards sum to %d", fs.Total.RCU.Synchronizes, syncSum)
	}
	if fs.Total.RCU.SyncWait.Total() == 0 && syncSum > 0 {
		t.Fatal("SyncWait histogram not merged into Total")
	}
}

// A 1-shard forest is the paper's single tree: every key in one shard,
// iterated in order.
func TestForestSingleShard(t *testing.T) {
	f := NewForest[int, int](1)
	h := f.NewHandle()
	defer h.Close()
	for k := 0; k < 1000; k++ {
		if !h.Insert(k, k*3) {
			t.Fatalf("Insert(%d) = false", k)
		}
	}
	for k := 0; k < 1000; k++ {
		if v, ok := h.Get(k); !ok || v != k*3 {
			t.Fatalf("Get(%d) = (%d, %v)", k, v, ok)
		}
	}
	if got := f.NumShards(); got != 1 {
		t.Fatalf("NumShards = %d", got)
	}
	keys := f.Keys()
	if len(keys) != 1000 || keys[0] != 0 || keys[999] != 999 {
		t.Fatalf("Keys() wrong: len %d", len(keys))
	}
}

// A one-shard forest passes its shard's stream straight through: a
// batched scan that stops at the first pair reads one batch, not the
// whole shard into a sort buffer.
func TestForestOneShardScanStreams(t *testing.T) {
	f := NewForest[int, int](1)
	h := f.NewHandle()
	defer h.Close()
	for _, k := range rand.New(rand.NewSource(1)).Perm(10000) {
		h.Insert(k, k)
	}
	h.ScanBatched(512, func(int, int) bool { return false })
	if got := f.Stats().Total.ScanPairs; got > 512 {
		t.Fatalf("a scan stopped at its first pair emitted %d pairs, want ≤ 512", got)
	}
	if got := f.Height(); got < 14 || got > 60 {
		t.Fatalf("Height = %d for 10000 random-order keys, want a random-BST depth", got)
	}
}

func TestForestTracingMergedDump(t *testing.T) {
	f := NewForest[int, int](4)

	recs := f.EnableTracing()
	if len(recs) != 4 {
		t.Fatalf("EnableTracing returned %d recorders, want 4", len(recs))
	}
	for i := 0; i < 4; i++ {
		if f.TraceRecorder(i) != recs[i] {
			t.Fatalf("TraceRecorder(%d) does not match EnableTracing result", i)
		}
	}

	h := f.NewHandle()
	defer h.Close()
	// Enough keys that every shard sees operations.
	for k := 0; k < 256; k++ {
		h.Insert(k, k)
	}
	for k := 0; k < 256; k++ {
		h.Get(k)
	}

	tr := f.DumpTrace()
	if len(tr.Events) == 0 {
		t.Fatal("merged dump has no events")
	}
	shardsSeen := map[int]bool{}
	ringShard := map[uint32]int{}
	for _, ri := range tr.Rings {
		if _, dup := ringShard[ri.ID]; dup {
			t.Fatalf("duplicate ring ID %d in merged dump", ri.ID)
		}
		ringShard[ri.ID] = ri.Shard
	}
	for i, ev := range tr.Events {
		shardsSeen[ev.Shard] = true
		if ev.Shard < 0 || ev.Shard >= 4 {
			t.Fatalf("event %d has shard %d outside [0,4)", i, ev.Shard)
		}
		if got, ok := ringShard[ev.Ring]; !ok || got != ev.Shard {
			t.Fatalf("event %d: ring %d maps to shard %d, event says %d", i, ev.Ring, got, ev.Shard)
		}
		if i > 0 && ev.Start < tr.Events[i-1].Start {
			t.Fatalf("merged events out of time order at %d", i)
		}
	}
	if len(shardsSeen) < 2 {
		t.Fatalf("expected events from several shards, got %v", shardsSeen)
	}

	f.DisableTracing()
	for i := 0; i < 4; i++ {
		if f.TraceRecorder(i) != nil {
			t.Fatalf("TraceRecorder(%d) still set after DisableTracing", i)
		}
	}
	if tr := f.DumpTrace(); len(tr.Events) != 0 || !tr.Epoch.IsZero() {
		t.Fatalf("dump after disable should be empty, got %d events", len(tr.Events))
	}
}

func TestForestShardFlavorEBR(t *testing.T) {
	f := NewForest[int, int](4,
		WithShardFlavor[int](func() rcu.Flavor { return rcu.NewEpochDomain() }))

	for i := 0; i < 4; i++ {
		if _, ok := f.Flavor(i).(*rcu.EpochDomain); !ok {
			t.Fatalf("Flavor(%d) = %T, want *rcu.EpochDomain", i, f.Flavor(i))
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := f.NewHandle()
			defer h.Close()
			for j := 0; j < 256; j++ {
				i := g*256 + j*37%256 // scrambled: leaves two-child nodes
				h.Insert(i, i)
			}
			for i := g * 256; i < (g+1)*256; i += 2 {
				h.Delete(i)
			}
		}(g)
	}
	wg.Wait()
	if got := f.Len(); got != 512 {
		t.Fatalf("Len() = %d, want 512", got)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The shards' epoch domains must have run real grace periods: only
	// two-child deletes wait for one.
	syncs := int64(0)
	for i := 0; i < 4; i++ {
		syncs += f.Flavor(i).(*rcu.EpochDomain).Stats().Synchronizes
	}
	if syncs == 0 {
		t.Fatal("no Synchronizes recorded across EBR shards despite deletes")
	}
}

// TestForestRange: Range emits every pair of a 4-shard forest in
// ascending global key order, not shard by shard, and stops at the
// pair where fn returns false.
func TestForestRange(t *testing.T) {
	f := NewForest[int, int](4)
	h := f.NewHandle()
	defer h.Close()
	const n = 1000
	want := make([]int, n)
	for i, k := range rand.New(rand.NewSource(3)).Perm(n) {
		h.Insert(k, -k)
		want[i] = i
	}
	var keys []int
	f.Range(func(k, v int) bool {
		if v == -k {
			keys = append(keys, k)
		}
		return true
	})
	if !slices.Equal(keys, want) {
		t.Fatalf("Range emitted %d keys starting %v, want 0..%d ascending with their values", len(keys), keys[:min(len(keys), 8)], n-1)
	}
	keys = nil
	f.Range(func(k, _ int) bool {
		keys = append(keys, k)
		return len(keys) < 10
	})
	if !slices.Equal(keys, want[:10]) {
		t.Fatalf("Range stopped at the 10th pair emitted %v, want %v", keys, want[:10])
	}
}

func TestForestRangeScanLimit(t *testing.T) {
	f := NewForest[int, int](8)
	h := f.NewHandle()
	defer h.Close()
	const n = 1000
	for k := 0; k < n; k++ {
		h.Insert(k, k*10)
	}

	// The bounded scan must yield the globally smallest `limit` keys in
	// ascending order, exactly as an unbounded scan truncated would.
	var got []int
	h.RangeScanLimit(100, 900, 25, func(k, v int) bool {
		if v != k*10 {
			t.Fatalf("RangeScanLimit pair (%d, %d) has wrong value", k, v)
		}
		got = append(got, k)
		return true
	})
	if len(got) != 25 {
		t.Fatalf("RangeScanLimit emitted %d pairs, want 25", len(got))
	}
	for i, k := range got {
		if k != 100+i {
			t.Fatalf("RangeScanLimit[%d] = %d, want %d (global ascending order)", i, k, 100+i)
		}
	}

	// A limit past the in-range population degrades to the full result.
	count := 0
	h.RangeScanLimit(990, 2000, 100, func(k, v int) bool { count++; return true })
	if count != 10 {
		t.Fatalf("over-sized limit emitted %d pairs, want 10", count)
	}

	// fn returning false stops mid-emit.
	count = 0
	h.RangeScanLimit(0, n, 50, func(k, v int) bool { count++; return count < 7 })
	if count != 7 {
		t.Fatalf("early-stop scan emitted %d pairs, want 7", count)
	}

	// Degenerate limits scan nothing.
	h.RangeScanLimit(0, n, 0, func(k, v int) bool {
		t.Fatal("limit 0 emitted a pair")
		return false
	})
	h.RangeScanLimit(0, n, -3, func(k, v int) bool {
		t.Fatal("negative limit emitted a pair")
		return false
	})
}

func TestForestScanBatched(t *testing.T) {
	f := NewForest[int, int](8)
	h := f.NewHandle()
	defer h.Close()
	const n = 500
	for k := 0; k < n; k++ {
		h.Insert(k, k*3)
	}

	// The batched full scan must emit every pair in global ascending
	// order, identical to RangeScan over the whole key space, however
	// small the batch (forcing many critical-section drops per shard).
	for _, batch := range []int{1, 7, 64, n * 2} {
		var got []int
		h.ScanBatched(batch, func(k, v int) bool {
			if v != k*3 {
				t.Fatalf("batch %d: pair (%d, %d) has wrong value", batch, k, v)
			}
			got = append(got, k)
			return true
		})
		if len(got) != n {
			t.Fatalf("batch %d: emitted %d pairs, want %d", batch, len(got), n)
		}
		for i, k := range got {
			if k != i {
				t.Fatalf("batch %d: got[%d] = %d, want %d (global ascending order)", batch, i, k, i)
			}
		}
	}

	// fn returning false stops mid-emit.
	count := 0
	h.ScanBatched(16, func(k, v int) bool { count++; return count < 9 })
	if count != 9 {
		t.Fatalf("early-stop batched scan emitted %d pairs, want 9", count)
	}
}

// TestForestLoadAscending: LoadAscending routes ascending pairs to
// their shards and grafts each shard's share as a balanced tree — each
// shard of n keys is exactly ⌈log2(n+1)⌉ high — with every key in the
// shard it routes to and every insert counted.
func TestForestLoadAscending(t *testing.T) {
	for _, shards := range []int{1, 4, 7} {
		const n = 20000
		keys, values := make([]int, n), make([]string, n)
		for i := range keys {
			keys[i], values[i] = 3*i-n, strconv.Itoa(i)
		}
		f := NewForest[int, string](shards)
		if err := f.LoadAscending(keys, values); err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if !slices.Equal(f.Keys(), keys) {
			t.Fatalf("%d shards: the forest's keys are not the loaded keys", shards)
		}
		st := f.Stats()
		if st.Total.Inserts != n {
			t.Errorf("%d shards: Stats().Total.Inserts = %d, want %d", shards, st.Total.Inserts, n)
		}
		for s := range f.shards {
			ns := st.Shards[s].Inserts
			if h := f.shards[s].tree.Height(); h != bits.Len(uint(ns)) {
				t.Errorf("%d shards: shard %d holds %d keys at height %d, want %d", shards, s, ns, h, bits.Len(uint(ns)))
			}
		}
		h := f.NewHandle()
		for i, k := range keys {
			if v, ok := h.Get(k); !ok || v != values[i] {
				t.Fatalf("%d shards: Get(%d) = (%q, %v), want (%q, true)", shards, k, v, ok, values[i])
			}
		}
		h.Close()
	}
}

// TestForestLoadAscendingRefuses: a forest holding a key — in its last
// shard, so a load that grafted shard by shard before checking would
// have linked the others — refuses the load and links nothing, as it
// does keys that are not strictly ascending; empty input does nothing.
func TestForestLoadAscendingRefuses(t *testing.T) {
	f := NewForest[int, int](4)
	keys, values := make([]int, 1000), make([]int, 1000)
	for i := range keys {
		keys[i], values[i] = i, i
	}
	for name, ks := range map[string][]int{"descending": {5, 4}, "repeated": {1, 1}, "unsorted": {1, 9, 5, 20}} {
		if err := f.LoadAscending(ks, make([]int, len(ks))); err == nil {
			t.Errorf("%s keys %v loaded, want an error", name, ks)
		}
	}
	if err := f.LoadAscending(keys, values[1:]); err == nil {
		t.Error("a length mismatch loaded, want an error")
	}
	if err := f.LoadAscending(nil, nil); err != nil {
		t.Errorf("LoadAscending of nothing = %v, want nil", err)
	}
	if f.Len() != 0 || f.Stats().Total.Inserts != 0 {
		t.Fatalf("refused loads changed the forest: %d keys", f.Len())
	}

	last := 2000
	for f.shardFor(last) != f.NumShards()-1 {
		last++
	}
	h := f.NewHandle()
	defer h.Close()
	h.Insert(last, last)
	if err := f.LoadAscending(keys, values); err == nil {
		t.Fatal("LoadAscending into a forest holding a key = nil, want an error")
	}
	if got := f.Keys(); !slices.Equal(got, []int{last}) || f.Stats().Total.Inserts != 1 {
		t.Fatalf("a refused load changed the forest: keys %v", got)
	}
}

// TestForestLoadAscendingRacingInsert races an insert against a load:
// either the insert reaches its shard first and that shard's graft is
// refused, or the insert finds its place in the grafted shard. Run it
// under -race.
func TestForestLoadAscendingRacingInsert(t *testing.T) {
	const n, rounds = 4000, 100
	keys, values := make([]int, n), make([]int, n)
	for i := range keys {
		keys[i], values[i] = 2*i, 2*i
	}
	const racer = 2001 // odd: never loaded
	for round := 0; round < rounds; round++ {
		f := NewForest[int, int](4)
		start := make(chan struct{})
		inserted := make(chan bool)
		go func() {
			h := f.NewHandle()
			defer h.Close()
			<-start
			inserted <- h.Insert(racer, racer)
		}()
		close(start)
		err := f.LoadAscending(keys, values)
		if !<-inserted {
			t.Fatal("the racing insert found its key present")
		}
		if err := f.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		h := f.NewHandle()
		if !h.Contains(racer) {
			t.Fatal("the racing insert's key is gone")
		}
		// The racer's shard holds either its share or the racer alone.
		s := f.shardFor(racer)
		shareLoaded := f.shards[s].tree.Len() > 1
		if shareLoaded == (err != nil) {
			t.Fatalf("LoadAscending = %v, but the racer's shard holds %d keys", err, f.shards[s].tree.Len())
		}
		for _, k := range keys {
			if f.shardFor(k) == s && h.Contains(k) != shareLoaded {
				t.Fatalf("key %d of the racer's shard: Contains = %v, want %v", k, !shareLoaded, shareLoaded)
			}
		}
		h.Close()
	}
}
