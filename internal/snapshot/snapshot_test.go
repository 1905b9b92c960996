package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/go-citrus/citrus/internal/partition"
)

func writeAndPublish(t testing.TB, dir string, lsn uint64, pairs map[int64]string) string {
	t.Helper()
	file, keys, err := Write(dir, lsn, func(emit func(int64, string) error) error {
		for k, v := range pairs {
			if err := emit(k, v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if keys != int64(len(pairs)) {
		t.Fatalf("Write counted %d keys, want %d", keys, len(pairs))
	}
	if err := Publish(dir, file, lsn, keys); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	return file
}

func load(t *testing.T, dir string) (uint64, map[int64]string) {
	t.Helper()
	got := map[int64]string{}
	lsn, keys, err := Load(dir, func(k int64, v string) error {
		got[k] = v
		return nil
	})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if keys != int64(len(got)) {
		t.Fatalf("Load counted %d, map has %d", keys, len(got))
	}
	return lsn, got
}

func TestWritePublishLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pairs := map[int64]string{}
	for i := int64(0); i < 1000; i++ {
		pairs[i*7] = fmt.Sprintf("value-%d-%s", i, strings.Repeat("x", int(i%31)))
	}
	pairs[-5] = "" // negative key, empty value
	writeAndPublish(t, dir, 4242, pairs)
	lsn, got := load(t, dir)
	if lsn != 4242 {
		t.Fatalf("loaded LSN %d, want 4242", lsn)
	}
	if len(got) != len(pairs) {
		t.Fatalf("loaded %d pairs, want %d", len(got), len(pairs))
	}
	for k, v := range pairs {
		if got[k] != v {
			t.Fatalf("key %d: %q, want %q", k, got[k], v)
		}
	}
}

// TestWriteFormat writes a fixed list of pairs, in the order given, and
// compares the file byte for byte with the format the package comment
// documents, built here field by field. One value is longer than the
// 64 KiB write buffer, so the CRC spans several flushes.
func TestWriteFormat(t *testing.T) {
	const lsn = 0x0102030405060708
	pairs := []struct {
		key   int64
		value string
	}{{7, "seven"}, {-2, ""}, {1 << 40, strings.Repeat("x", 70000)}, {3, "é"}}
	dir := t.TempDir()
	file, n, err := Write(dir, lsn, func(emit func(int64, string) error) error {
		for _, p := range pairs {
			if err := emit(p.key, p.value); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if file != "snap-0102030405060708.snap" || n != int64(len(pairs)) {
		t.Fatalf("Write = (%q, %d), want (snap-0102030405060708.snap, %d)", file, n, len(pairs))
	}
	le := binary.LittleEndian
	want := []byte("CITRSNAP")
	want = le.AppendUint32(want, 1)
	want = le.AppendUint64(want, lsn)
	for _, p := range pairs {
		want = append(want, 0x01)
		want = le.AppendUint64(want, uint64(p.key))
		want = le.AppendUint32(want, uint32(len(p.value)))
		want = append(want, p.value...)
	}
	want = append(want, 0x00)
	want = le.AppendUint64(want, uint64(len(pairs)))
	want = le.AppendUint32(want, crc32.Checksum(want, crc32.MakeTable(crc32.Castagnoli)))
	got, err := os.ReadFile(filepath.Join(dir, file))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < min(len(got), len(want)) && got[i] == want[i] {
			i++
		}
		t.Fatalf("file is %d bytes, format gives %d; first difference at byte %d", len(got), len(want), i)
	}
}

// TestWriteAllocsPerRecord: Write allocates the same for 10 000
// records as for 10 — nothing per record.
func TestWriteAllocsPerRecord(t *testing.T) {
	dir := t.TempDir()
	allocs := func(n int64) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, _, err := Write(dir, 1, func(emit func(int64, string) error) error {
				for k := int64(0); k < n; k++ {
					if err := emit(k, "value"); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(10), allocs(10000)
	t.Logf("Write allocations: %v for 10 records, %v for 10 000", few, many)
	if many != few {
		t.Fatalf("Write made %v allocations for 10 000 records and %v for 10", many, few)
	}
}

// TestReadSortedSortsAndRejects: ReadSorted returns the pairs of a file
// written in any order ascending, values aligned, and refuses what Load
// refuses — with no pairs.
func TestReadSortedSortsAndRejects(t *testing.T) {
	dir := t.TempDir()
	pairs := map[int64]string{}
	for i := int64(0); i < 500; i++ {
		pairs[(i*7919)%1000-300] = fmt.Sprintf("v%d", i)
	}
	file := writeAndPublish(t, dir, 9, pairs) // map order: unsorted
	lsn, keys, values, err := ReadSorted(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 9 || len(keys) != len(pairs) || len(values) != len(keys) {
		t.Fatalf("ReadSorted = lsn %d, %d keys, %d values; want 9, %d, %d", lsn, len(keys), len(values), len(pairs), len(pairs))
	}
	if !slices.IsSorted(keys) {
		t.Fatal("keys are not ascending")
	}
	for i, k := range keys {
		if values[i] != pairs[k] {
			t.Fatalf("key %d: value %q, want %q", k, values[i], pairs[k])
		}
	}

	if _, keys, _, err := ReadSorted(t.TempDir()); !errors.Is(err, ErrNoSnapshot) || keys != nil {
		t.Fatalf("ReadSorted of an empty dir = (%v, %v), want ErrNoSnapshot and no keys", keys, err)
	}
	path := filepath.Join(dir, file)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for what, data := range map[string][]byte{
		"a byte after the trailer": append(slices.Clone(orig), 0),
		"a truncated trailer":      orig[:len(orig)-1],
		"a flipped value bit":      flipAt(orig, headerSize+recordSize),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, keys, values, err := ReadSorted(dir); err == nil || keys != nil || values != nil {
			t.Fatalf("%s: ReadSorted = (%d keys, %d values, %v), want an error and no pairs", what, len(keys), len(values), err)
		}
	}
}

// TestReadSortedStreams: ReadSorted streams the file rather than
// holding a copy of it. Past the value bytes it returns, it allocates a
// bounded amount however large the values are, and past one string per
// record a fixed number of objects however many records there are.
func TestReadSortedStreams(t *testing.T) {
	snapshot := func(n, vlen int) string {
		dir := t.TempDir()
		pairs := map[int64]string{}
		for k := range n {
			pairs[int64(k)] = strings.Repeat("v", vlen)
		}
		writeAndPublish(t, dir, 1, pairs)
		return dir
	}
	readSorted := func(dir string, n int) {
		if _, keys, _, err := ReadSorted(dir); err != nil || len(keys) != n {
			t.Fatalf("ReadSorted = %d keys, %v; want %d", len(keys), err, n)
		}
	}

	// 16 values of 256 KiB: a 4 MiB file. A copy of it would double
	// the bytes allocated; the stream adds its 64 KiB buffer and one
	// value-sized buffer it reuses.
	const big, bigLen = 16, 256 << 10
	dir := snapshot(big, bigLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	readSorted(dir, big)
	runtime.ReadMemStats(&after)
	if values, bytes := uint64(big*bigLen), after.TotalAlloc-before.TotalAlloc; bytes > values+1<<20 {
		t.Errorf("ReadSorted of %d B of values allocated %d B, want at most 1 MiB more", values, bytes)
	}

	objects := func(n int) float64 {
		dir := snapshot(n, 8)
		return testing.AllocsPerRun(5, func() { readSorted(dir, n) })
	}
	few, many := objects(10), objects(10000)
	perRecord := (many - few) / (10000 - 10)
	t.Logf("ReadSorted: %v objects for 10 records, %v for 10 000 (%.3f per record)", few, many, perRecord)
	if perRecord > 1.01 {
		t.Errorf("ReadSorted made %.3f objects per record, want one: its value string", perRecord)
	}
}

func flipAt(data []byte, off int) []byte {
	data = slices.Clone(data)
	data[off] ^= 0x01
	return data
}

func TestLoadMissingManifest(t *testing.T) {
	_, _, err := Load(t.TempDir(), func(int64, string) error { return nil })
	if !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("Load on empty dir = %v, want ErrNoSnapshot", err)
	}
}

func TestPublishSupersedesOldSnapshots(t *testing.T) {
	dir := t.TempDir()
	old := writeAndPublish(t, dir, 10, map[int64]string{1: "a"})
	writeAndPublish(t, dir, 20, map[int64]string{1: "b", 2: "c"})
	if _, err := os.Stat(filepath.Join(dir, old)); !os.IsNotExist(err) {
		t.Fatalf("old snapshot %s not removed (err=%v)", old, err)
	}
	lsn, got := load(t, dir)
	if lsn != 20 || got[1] != "b" || got[2] != "c" {
		t.Fatalf("loaded lsn=%d pairs=%v", lsn, got)
	}
}

// mustNotApply is an apply callback for corrupt input: Load verifies
// the whole file before its first apply, so any call fails the test.
func mustNotApply(t *testing.T, what string) func(int64, string) error {
	return func(k int64, _ string) error {
		t.Fatalf("%s: apply(%d) called on a corrupt snapshot", what, k)
		return nil
	}
}

// TestLoadRejectsCorruption flips one bit at every byte offset of a
// snapshot file and asserts Load fails loudly without applying a pair.
// (The CRC covers everything, so every flip must be caught; flips in
// the length fields may instead surface as truncation or
// implausible-length errors, which is also loud.)
func TestLoadRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	file := writeAndPublish(t, dir, 7, map[int64]string{1: "alpha", 2: "beta", 3: "gamma"})
	path := filepath.Join(dir, file)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(orig); off++ {
		data := append([]byte(nil), orig...)
		data[off] ^= 0x10
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := Load(dir, mustNotApply(t, fmt.Sprintf("bit flip at offset %d", off)))
		if err == nil {
			t.Fatalf("bit flip at offset %d loaded without error", off)
		}
	}
	// Restore and confirm it loads again.
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(dir, func(int64, string) error { return nil }); err != nil {
		t.Fatalf("restored snapshot failed to load: %v", err)
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	dir := t.TempDir()
	file := writeAndPublish(t, dir, 7, map[int64]string{1: "alpha", 2: "beta"})
	path := filepath.Join(dir, file)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(orig); cut++ {
		if err := os.WriteFile(path, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Load(dir, mustNotApply(t, fmt.Sprintf("truncation to %d bytes", cut))); err == nil {
			t.Fatalf("truncation to %d bytes loaded without error", cut)
		}
	}
}

func TestLoadRejectsManifestFileMismatch(t *testing.T) {
	dir := t.TempDir()
	writeAndPublish(t, dir, 30, map[int64]string{1: "a"})
	// Manifest claiming a different LSN than the file header must fail.
	if err := Publish(dir, fmt.Sprintf("snap-%016x.snap", 30), 31, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(dir, func(int64, string) error { return nil }); err == nil {
		t.Fatalf("LSN mismatch between manifest and file loaded without error")
	}
}

func TestWriteScanErrorCleansUp(t *testing.T) {
	dir := t.TempDir()
	boom := errors.New("scan failed")
	_, _, err := Write(dir, 1, func(emit func(int64, string) error) error {
		emit(1, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write = %v, want scan error", err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		t.Fatalf("leftover file after failed Write: %s", e.Name())
	}
}

// levelOrderRef is the reference for Load's apply order: a
// breadth-first walk, with an explicit queue, of the balanced BST over
// sorted whose every subrange is rooted at its middle element.
func levelOrderRef(sorted []int64) []int64 {
	type span struct{ lo, hi int }
	out := make([]int64, 0, len(sorted))
	for q := []span{{0, len(sorted)}}; len(q) > 0; q = q[1:] {
		s := q[0]
		if s.lo >= s.hi {
			continue
		}
		mid := s.lo + (s.hi-s.lo)/2
		out = append(out, sorted[mid])
		q = append(q, span{s.lo, mid}, span{mid + 1, s.hi})
	}
	return out
}

// heightBST is an unbalanced BST that tracks only its height: the
// shape an insert order gives Citrus, which does not rebalance either.
type heightBST struct {
	keys        []int64
	left, right []int32
	height      int
}

func (t *heightBST) insert(k int64) {
	id := int32(len(t.keys))
	t.keys = append(t.keys, k)
	t.left = append(t.left, -1)
	t.right = append(t.right, -1)
	depth := 1
	for cur := int32(0); id > 0; {
		depth++
		next := &t.right[cur]
		if k < t.keys[cur] {
			next = &t.left[cur]
		}
		if *next < 0 {
			*next = id
			break
		}
		cur = *next
	}
	t.height = max(t.height, depth)
}

// TestLoadOrderBuildsBalancedTrees loads a snapshot of 2^15−1 ascending
// keys — the order kvserver's scan writes — and checks the shape its
// apply order gives an unbalanced BST: exactly height 15 for one tree,
// and logarithmic height for each shard of a 4-shard forest, which
// receives the hash-routed share of the order. Pre-order (median, then
// the whole left half) also builds height 15 on one tree, but its
// shards measured 458 to 2 766 deep over 200 router seeds. Level
// order's deepest shard measured 30 to 53 over 20 000 seeds (median
// 35): a shard's share is a random subset, so its tree is only about
// as good as a random BST. The bound is therefore 5·⌈log2(n+1)⌉; a
// tighter multiple would fail on seeds in that tail (3× failed 4.9% of
// them, 4× one).
func TestLoadOrderBuildsBalancedTrees(t *testing.T) {
	const n, height = 1<<15 - 1, 15
	dir := t.TempDir()
	file, keys, err := Write(dir, 1, func(emit func(int64, string) error) error {
		for k := int64(0); k < n; k++ {
			if err := emit(k, ""); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Publish(dir, file, 1, keys); err != nil {
		t.Fatal(err)
	}
	order := make([]int64, 0, n)
	if _, _, err := Load(dir, func(k int64, _ string) error {
		order = append(order, k)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, levelOrderRef(slices.Sorted(slices.Values(order)))) {
		t.Fatal("apply order is not the level order of the sorted keys")
	}

	var whole heightBST
	for _, k := range order {
		whole.insert(k)
	}
	if whole.height != height {
		t.Fatalf("one tree built from the apply order has height %d, want %d", whole.height, height)
	}

	router := partition.NewRouter[int64](partition.SharedSeed(), 4)
	shards := make([]heightBST, router.N())
	for _, k := range order {
		shards[router.Partition(k)].insert(k)
	}
	for i, sh := range shards {
		bound := 5 * bits.Len(uint(len(sh.keys)))
		t.Logf("shard %d: %d keys, height %d (bound %d)", i, len(sh.keys), sh.height, bound)
		if sh.height > bound {
			t.Errorf("shard %d: %d keys built height %d, want ≤ %d", i, len(sh.keys), sh.height, bound)
		}
	}
}

// FuzzSnapshotLoad installs arbitrary bytes as the snapshot file, under
// a manifest that names it with the fuzzed LSN and key count. Load must
// not panic, must not call apply when it returns an error, and on
// success must have called apply exactly keys times, over distinct
// keys, in level order.
func FuzzSnapshotLoad(f *testing.F) {
	pairs := map[int64]string{-3: "", 1: "alpha", 2: "beta", 40: "gamma", 41: "delta"}
	seedDir := f.TempDir()
	valid, err := os.ReadFile(filepath.Join(seedDir, writeAndPublish(f, seedDir, 7, pairs)))
	if err != nil {
		f.Fatal(err)
	}
	keys := int64(len(pairs))
	f.Add(valid, uint64(7), keys)
	for _, cut := range []int{0, headerSize - 1, headerSize, headerSize + recordSize, len(valid) - trailerSize, len(valid) - 1} {
		f.Add(valid[:cut], uint64(7), keys)
	}
	flipped := slices.Clone(valid)
	flipped[headerSize+1] ^= 0x01 // low bit of the first record's key
	f.Add(flipped, uint64(7), keys)

	f.Fuzz(func(t *testing.T, data []byte, lsn uint64, keys int64) {
		dir := t.TempDir()
		const name = "snap-fuzz.snap"
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		mdata, err := json.Marshal(Manifest{File: name, LSN: lsn, Keys: keys})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), mdata, 0o644); err != nil {
			t.Fatal(err)
		}
		var order []int64
		gotLSN, gotKeys, err := Load(dir, func(k int64, _ string) error {
			order = append(order, k)
			return nil
		})
		if err != nil {
			if len(order) > 0 {
				t.Fatalf("Load failed (%v) after %d apply calls", err, len(order))
			}
			return
		}
		if gotLSN != lsn || gotKeys != keys || int64(len(order)) != keys {
			t.Fatalf("Load = (lsn %d, keys %d) with %d applies; manifest says lsn %d, keys %d", gotLSN, gotKeys, len(order), lsn, keys)
		}
		sorted := slices.Sorted(slices.Values(order))
		if len(slices.Compact(slices.Clone(sorted))) != len(sorted) {
			t.Fatalf("apply saw a key twice: %v", order)
		}
		if !slices.Equal(order, levelOrderRef(sorted)) {
			t.Fatalf("apply order %v is not level order", order)
		}
	})
}
