package citrus

import (
	"context"
	"hash/maphash"
	"math/rand"
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

// Two forests with the same seed and shard count must agree on routing —
// the property the shared partition seed exists for. A custom partition
// function must be honored exactly.
func TestForestRoutingStable(t *testing.T) {
	seed := maphash.MakeSeed()
	a := NewForest[string, int](4, WithForestSeed[string](seed))
	b := NewForest[string, int](4, WithForestSeed[string](seed))
	keys := []string{"", "a", "forest", "shard", "grace", "period", "citrus", "rcu"}
	for _, k := range keys {
		if sa, sb := a.shardFor(k), b.shardFor(k); sa != sb {
			t.Fatalf("same-seed forests disagree on %q: shard %d vs %d", k, sa, sb)
		}
	}

	// Default-seeded forests agree too (process-wide shared seed).
	c := NewForest[string, int](4)
	d := NewForest[string, int](4)
	for _, k := range keys {
		if sc, sd := c.shardFor(k), d.shardFor(k); sc != sd {
			t.Fatalf("default forests disagree on %q: shard %d vs %d", k, sc, sd)
		}
	}

	e := NewForest[int, int](3, WithPartition[int](func(k int) int { return k % 3 }))
	h := e.NewHandle()
	defer h.Close()
	for k := 0; k < 30; k++ {
		h.Insert(k, k)
	}
	fs := e.Stats()
	for i, s := range fs.Shards {
		if s.Inserts != 10 {
			t.Fatalf("shard %d holds %d keys under k%%3 partition, want 10", i, s.Inserts)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestForestPartitionOutOfRangePanics(t *testing.T) {
	f := NewForest[int, int](2, WithPartition[int](func(int) int { return 2 }))
	h := f.NewHandle()
	defer h.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range partition did not panic")
		}
	}()
	h.Insert(1, 1)
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
}

// The point of per-shard domains: a reader parked inside one shard's
// critical section must not delay grace periods — and therefore
// two-child deletes — on sibling shards.
func TestForestShardIsolation(t *testing.T) {
	const shards = 4
	// Route by k % shards so the test can aim keys at specific shards.
	f := NewForest[int, int](shards, WithPartition[int](func(k int) int {
		k %= shards
		if k < 0 {
			k += shards
		}
		return k
	}))

	// Park a reader inside shard 0's read-side critical section.
	r := f.Domain(0).Register()
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
			// Build two-child victims in shard s: per triple, insert
			// the middle key first so left and right become its
			// children, then delete the middle — a two-child delete,
			// which pays an inline grace period on shard s's domain.
			for tr := 0; tr < 8; tr++ {
				base := s + 3*tr*shards
				mid, left, right := base+shards, base, base+2*shards
				h.Insert(mid, tr)
				h.Insert(left, tr)
				h.Insert(right, tr)
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

// A 1-shard forest must behave exactly like a Tree (the degenerate case
// the bench uses as its baseline sanity check).
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
		if f.Domain(i) != nil {
			t.Fatalf("Domain(%d) = %v, want nil for a non-Domain flavor", i, f.Domain(i))
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
