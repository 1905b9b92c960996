package citrus_test

import (
	"fmt"
	"sync"
	"testing"

	citrus "github.com/go-citrus/citrus"
	"github.com/go-citrus/citrus/rcu"
)

func TestPublicAPI(t *testing.T) {
	tree := citrus.New[string, int]()
	h := tree.NewHandle()
	defer h.Close()

	if !h.Insert("b", 2) || !h.Insert("a", 1) || !h.Insert("c", 3) {
		t.Fatal("inserts failed")
	}
	if h.Insert("b", 99) {
		t.Fatal("duplicate insert succeeded")
	}
	if v, ok := h.Get("b"); !ok || v != 2 {
		t.Fatalf("Get(b) = (%d, %v), want (2, true)", v, ok)
	}
	if !h.Contains("a") || h.Contains("zz") {
		t.Fatal("Contains broken")
	}
	if !h.Delete("b") || h.Delete("b") {
		t.Fatal("Delete semantics broken")
	}
	if got := tree.Len(); got != 2 {
		t.Fatalf("Len() = %d, want 2", got)
	}
	want := []string{"a", "c"}
	for i, k := range tree.Keys() {
		if k != want[i] {
			t.Fatalf("Keys() = %v, want %v", tree.Keys(), want)
		}
	}
	var collected []string
	tree.Range(func(k string, v int) bool {
		collected = append(collected, fmt.Sprintf("%s=%d", k, v))
		return true
	})
	if len(collected) != 2 || collected[0] != "a=1" || collected[1] != "c=3" {
		t.Fatalf("Range collected %v", collected)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIWithClassicFlavor(t *testing.T) {
	tree := citrus.NewWithFlavor[int, int](rcu.NewClassicDomain())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tree.NewHandle()
			defer h.Close()
			for i := g * 100; i < (g+1)*100; i++ {
				h.Insert(i, i)
			}
			for i := g * 100; i < (g+1)*100; i += 2 {
				h.Delete(i)
			}
		}(g)
	}
	wg.Wait()
	if got := tree.Len(); got != 200 {
		t.Fatalf("Len() = %d, want 200", got)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedDomainAcrossTrees(t *testing.T) {
	dom := rcu.NewDomain()
	t1 := citrus.NewWithFlavor[int, int](dom)
	t2 := citrus.NewWithFlavor[int, int](dom)
	h1, h2 := t1.NewHandle(), t2.NewHandle()
	defer h1.Close()
	defer h2.Close()
	h1.Insert(1, 1)
	h2.Insert(2, 2)
	if !h1.Contains(1) || h1.Contains(2) || !h2.Contains(2) {
		t.Fatal("trees sharing a domain interfere")
	}
}

func ExampleTree() {
	tree := citrus.New[int, string]()
	h := tree.NewHandle()
	defer h.Close()

	h.Insert(2, "two")
	h.Insert(1, "one")
	h.Insert(3, "three")
	h.Delete(2)

	if v, ok := h.Get(1); ok {
		fmt.Println("1 ->", v)
	}
	fmt.Println("2 present:", h.Contains(2))
	fmt.Println("keys:", tree.Keys())
	// Output:
	// 1 -> one
	// 2 present: false
	// keys: [1 3]
}

func TestPublicAPIWithEpochFlavor(t *testing.T) {
	tree := citrus.NewWithFlavor[int, int](rcu.NewEpochDomain())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			h := tree.NewHandle()
			defer h.Close()
			for i := g * 100; i < (g+1)*100; i++ {
				h.Insert(i, i)
			}
			for i := g * 100; i < (g+1)*100; i += 2 {
				h.Delete(i)
			}
		}(g)
	}
	wg.Wait()
	if got := tree.Len(); got != 200 {
		t.Fatalf("Len() = %d, want 200", got)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHandleRangeScanLimit(t *testing.T) {
	tree := citrus.New[int, int]()
	h := tree.NewHandle()
	defer h.Close()
	for k := 0; k < 100; k++ {
		h.Insert(k, k)
	}
	var got []int
	h.RangeScanLimit(10, 90, 5, func(k, v int) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 5 {
		t.Fatalf("RangeScanLimit emitted %d pairs, want 5", len(got))
	}
	for i, k := range got {
		if k != 10+i {
			t.Fatalf("RangeScanLimit[%d] = %d, want %d", i, k, 10+i)
		}
	}
	count := 0
	h.RangeScanLimit(0, 100, 0, func(k, v int) bool { count++; return true })
	if count != 0 {
		t.Fatalf("limit 0 emitted %d pairs", count)
	}
}
