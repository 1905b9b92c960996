package citrus_test

import (
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	citrus "github.com/go-citrus/citrus"
	"github.com/go-citrus/citrus/rcu"
)

func TestTreeStatsEndToEnd(t *testing.T) {
	dom := rcu.NewDomain()
	tree := citrus.NewWithFlavor[int, string](dom)
	h := tree.NewHandle()
	defer h.Close()

	h.Insert(2, "two")
	h.Insert(1, "one")
	h.Insert(3, "three")
	h.Get(1)
	h.Delete(2) // two children → one inline grace period

	s := tree.Stats().Total
	if s.Inserts != 3 || s.Deletes != 1 || s.Contains != 1 {
		t.Fatalf("unexpected counters: %+v", s)
	}
	if s.TwoChildDeletes != 1 {
		t.Fatalf("TwoChildDeletes = %d, want 1", s.TwoChildDeletes)
	}
	if s.RCU == nil || s.RCU.Synchronizes != 1 {
		t.Fatalf("RCU stats missing or wrong: %+v", s.RCU)
	}
	if s.RCU.Synchronizes != dom.Stats().Synchronizes {
		t.Fatal("tree-reported RCU stats disagree with the domain's")
	}

	// The snapshot must be JSON-serializable for /metrics endpoints.
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"inserts", "two_child_deletes", "rcu", "sync_wait"} {
		if !strings.Contains(string(raw), field) {
			t.Fatalf("marshalled stats missing %q: %s", field, raw)
		}
	}
}

// TestHandleDoubleCloseAndUseAfterClose pins the public-API contract:
// double Close is a no-op and use-after-Close is a descriptive panic,
// not a nil dereference.
func TestHandleDoubleCloseAndUseAfterClose(t *testing.T) {
	tree := citrus.New[int, int]()
	h := tree.NewHandle()
	h.Insert(1, 1)
	h.Close()
	h.Close()

	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "Handle used after Close") {
			t.Fatalf("Get after Close panicked with %v, want descriptive message", r)
		}
	}()
	h.Get(1)
}

// TestStatsConcurrentWithWorkload drives the public API from several
// goroutines while polling Stats, checking monotonicity and the final
// tally. With -race this doubles as the API-level snapshot-tearing test.
func TestStatsConcurrentWithWorkload(t *testing.T) {
	tree := citrus.New[int, int]()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			h := tree.NewHandle()
			defer h.Close()
			for i := 0; !stop.Load(); i++ {
				k := (seed*131 + i) % 64
				switch i % 4 {
				case 0, 1:
					h.Contains(k)
				case 2:
					h.Insert(k, k)
				default:
					h.Delete(k)
				}
			}
		}(w)
	}
	var prevOps int64
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		s := tree.Stats().Total
		ops := s.Contains + s.Inserts + s.InsertExisting + s.Deletes + s.DeleteMisses
		if ops < prevOps {
			t.Fatalf("total ops went backwards: %d < %d", ops, prevOps)
		}
		prevOps = ops
	}
	stop.Store(true)
	wg.Wait()

	s := tree.Stats().Total
	if int64(tree.Len()) != s.Inserts-s.Deletes {
		t.Fatalf("Len()=%d, Inserts-Deletes=%d", tree.Len(), s.Inserts-s.Deletes)
	}
}
