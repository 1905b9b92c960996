package linearizability

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/go-citrus/citrus/internal/impls"
)

// The pinned fabricated histories: each encodes one way a scan can be
// impossible under the weak consistency spec, and the checker must
// reject every one. These are the scan analogue of
// TestStaleReadRejected — a checker that accepts them checks nothing.

func TestScanPhantomKeyRejected(t *testing.T) {
	// Key 5 was never successfully inserted, yet a scan returned it.
	ops := []Op{
		{Kind: Insert, Key: 1, Value: 10, OK: true, Call: 1, Return: 2},
		{Kind: Scan, Lo: 0, Hi: 100, Keys: []int{1, 5}, Call: 3, Return: 4},
	}
	if err := Check(ops, 0); err == nil {
		t.Fatal("scan returning a never-inserted key accepted")
	}
}

func TestScanDeadKeyRejected(t *testing.T) {
	// Key 1 was inserted and then provably deleted before the scan
	// window opened (delete starts after the insert returns, completes
	// before the scan is called) — yet the scan returned it.
	ops := []Op{
		{Kind: Insert, Key: 1, Value: 10, OK: true, Call: 1, Return: 2},
		{Kind: Delete, Key: 1, OK: true, Call: 3, Return: 4},
		{Kind: Scan, Lo: 0, Hi: 100, Keys: []int{1}, Call: 5, Return: 6},
	}
	if err := Check(ops, 0); err == nil {
		t.Fatal("scan returning a provably dead key accepted")
	}
}

func TestScanMissingPermanentKeyRejected(t *testing.T) {
	// Key 2's insert completed before the scan began and no delete ever
	// touched it: the must-appear clause requires it in the output.
	ops := []Op{
		{Kind: Insert, Key: 2, Value: 20, OK: true, Call: 1, Return: 2},
		{Kind: Insert, Key: 7, Value: 70, OK: true, Call: 3, Return: 4},
		{Kind: Scan, Lo: 0, Hi: 100, Keys: []int{7}, Call: 5, Return: 6},
	}
	if err := Check(ops, 0); err == nil {
		t.Fatal("scan missing a provably present key accepted")
	}
}

func TestScanUnsortedRejected(t *testing.T) {
	ops := []Op{
		{Kind: Insert, Key: 1, Value: 10, OK: true, Call: 1, Return: 2},
		{Kind: Insert, Key: 2, Value: 20, OK: true, Call: 3, Return: 4},
		{Kind: Scan, Lo: 0, Hi: 100, Keys: []int{2, 1}, Call: 5, Return: 6},
	}
	if err := Check(ops, 0); err == nil {
		t.Fatal("descending scan output accepted")
	}
}

func TestScanDuplicateRejected(t *testing.T) {
	ops := []Op{
		{Kind: Insert, Key: 1, Value: 10, OK: true, Call: 1, Return: 2},
		{Kind: Scan, Lo: 0, Hi: 100, Keys: []int{1, 1}, Call: 3, Return: 4},
	}
	if err := Check(ops, 0); err == nil {
		t.Fatal("duplicate scan emission accepted")
	}
}

func TestScanOutOfBoundsRejected(t *testing.T) {
	ops := []Op{
		{Kind: Insert, Key: 50, Value: 1, OK: true, Call: 1, Return: 2},
		{Kind: Scan, Lo: 0, Hi: 10, Keys: []int{50}, Call: 3, Return: 4},
	}
	if err := Check(ops, 0); err == nil {
		t.Fatal("out-of-bounds scan emission accepted")
	}
}

// Ambiguous histories the checker must ACCEPT: the conservative spec
// only rejects provable impossibilities.

func TestScanOverlappingUpdateAccepted(t *testing.T) {
	// The delete overlaps the scan window, so both including and
	// omitting the key are valid.
	for _, keys := range [][]int{{1}, {}} {
		ops := []Op{
			{Kind: Insert, Key: 1, Value: 10, OK: true, Call: 1, Return: 2},
			{Kind: Delete, Key: 1, OK: true, Call: 3, Return: 8},
			{Kind: Scan, Lo: 0, Hi: 100, Keys: keys, Call: 4, Return: 7},
		}
		if err := Check(ops, 0); err != nil {
			t.Fatalf("keys=%v: %v", keys, err)
		}
	}
}

func TestScanInconsistentCutAccepted(t *testing.T) {
	// Two keys that never coexisted — 1 deleted before 9 was inserted,
	// with both updates inside the scan window. A linearizable scan
	// could never return both; the weak spec explicitly permits it.
	ops := []Op{
		{Kind: Insert, Key: 1, Value: 10, OK: true, Call: 1, Return: 2},
		{Kind: Delete, Key: 1, OK: true, Call: 4, Return: 5},
		{Kind: Insert, Key: 9, Value: 90, OK: true, Call: 6, Return: 7},
		{Kind: Scan, Lo: 0, Hi: 100, Keys: []int{1, 9}, Call: 3, Return: 8},
	}
	if err := Check(ops, 0); err != nil {
		t.Fatal(err)
	}
}

// TestShrinkScanHistory verifies Shrink reduces a failing scan history
// to a minimal core that still contains the offending scan.
func TestShrinkScanHistory(t *testing.T) {
	ops := []Op{
		{Kind: Insert, Key: 1, Value: 10, OK: true, Call: 1, Return: 2},
		{Kind: Insert, Key: 2, Value: 20, OK: true, Call: 3, Return: 4},
		{Kind: Delete, Key: 2, OK: true, Call: 5, Return: 6},
		{Kind: Contains, Key: 1, Value: 10, OK: true, Call: 7, Return: 8},
		// Phantom: 5 never inserted.
		{Kind: Scan, Lo: 0, Hi: 100, Keys: []int{1, 5}, Call: 9, Return: 10},
	}
	if Check(ops, 0) == nil {
		t.Fatal("fabricated history unexpectedly valid")
	}
	small := Shrink(ops, 0)
	if Check(small, 0) == nil {
		t.Fatal("shrunk history no longer fails")
	}
	hasScan := false
	for _, op := range small {
		if op.Kind == Scan {
			hasScan = true
		}
	}
	if !hasScan {
		t.Fatalf("shrunk history lost the scan: %s", dumpOps(small))
	}
	// The phantom-key violation needs only the scan itself.
	if len(small) != 1 {
		t.Fatalf("shrunk history has %d ops, want 1:\n%s", len(small), dumpOps(small))
	}
}

// TestRealScanHistoriesValid records genuinely concurrent histories
// with scans mixed into the op stream on every implementation and
// verifies each passes the combined checker (linearizability for
// single-key ops, weak consistency for scans).
func TestRealScanHistoriesValid(t *testing.T) {
	for _, f := range impls.All[int, int]() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			for round := 0; round < 20; round++ {
				m := f.New()
				rec := NewRecorder()
				const procs = 4
				handles := make([]*RecordingHandle, procs)
				for p := range handles {
					handles[p] = rec.Wrap(m.NewHandle(), p)
				}
				var wg sync.WaitGroup
				for p := 0; p < procs; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						h := handles[p]
						rng := rand.New(rand.NewSource(int64(round*100 + p)))
						for i := 0; i < 8; i++ {
							k := rng.Intn(4)
							switch rng.Intn(4) {
							case 0:
								h.Insert(k, p*1000+i)
							case 1:
								h.Delete(k)
							case 2:
								h.Contains(k)
							default:
								h.RangeScan(0, 4, func(int, int) bool { return true })
							}
						}
					}(p)
				}
				wg.Wait()
				var ops []Op
				for _, h := range handles {
					ops = append(ops, h.Ops()...)
					h.Close()
				}
				if err := Check(ops, 0); err != nil {
					t.Fatalf("round %d: %v\nhistory:\n%s", round, err, dumpOps(ops))
				}
			}
		})
	}
}
