// Package snapshot writes and loads kvserver's fuzzy snapshots: a
// checksummed dump of the key/value map taken by a batched RCU range
// scan while writers keep running, stamped with the WAL LSN captured
// just before the scan started.
//
// The snapshot is "fuzzy" — the scan holds no global lock, so the file
// is not a point-in-time image. It is nevertheless a sound recovery
// base because of the ordering invariant kvserver maintains (apply to
// the tree BEFORE appending to the WAL, both under a per-key stripe
// lock): every record with LSN ≤ the captured snapLSN was already
// applied when the scan began, so for each key the snapshot holds a
// state at least as new as snapLSN, and replaying the WAL suffix
// (LSN > snapLSN) — whose SET/DEL records are idempotent last-write-
// wins per key — converges every key to its true final state. The full
// argument is in docs/DURABILITY.md.
//
// File format (little-endian):
//
//	magic "CITRSNAP" | u32 version | u64 lsn
//	repeated: tag 0x01 | u64 key | u32 value length | value bytes
//	trailer:  tag 0x00 | u64 record count | u32 CRC32C over all prior bytes
//
// Files are written to a temp name, fsynced, then renamed; the MANIFEST
// (a tiny JSON document naming the current snapshot file, LSN and key
// count) is replaced the same way, so a crash at any point leaves either
// the old or the new snapshot installed — never a half-written one.
//
// ReadSorted reads and verifies a snapshot and returns its pairs in
// ascending key order. Citrus is an unbalanced BST, and the scan writes
// keys in ascending order, so inserting that stream as read would build
// a list in quadratic time. A caller that can build a balanced tree from
// sorted pairs directly does so (kvserver grafts them into its forest
// with citrus.Forest.LoadAscending); Load serves a caller that can only
// insert, handing the pairs over in level order of the balanced tree
// over them — the median, then the medians of both halves, and so on —
// so plain inserts build a tree of logarithmic height.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

const (
	magic        = "CITRSNAP"
	version      = 1
	manifestName = "MANIFEST"
	tagRecord    = 0x01
	tagEnd       = 0x00
	// Sizes of the fixed parts of the format: the header, a record
	// without its value (so the smallest record), and the trailer.
	headerSize  = 20
	recordSize  = 13
	trailerSize = 13
	// maxValueBytes bounds the value-length field on load; anything
	// larger is treated as corruption, not an allocation request.
	maxValueBytes = 1 << 24
	// ioBufferSize is the bufio buffer Write and ReadSorted stream
	// through, so a snapshot costs one syscall per 64 KiB rather than
	// two per pair.
	ioBufferSize = 64 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrNoSnapshot is returned by Load when no snapshot is installed —
// a fresh data directory, recoverable from the WAL alone.
var ErrNoSnapshot = errors.New("snapshot: no manifest")

// Manifest names the installed snapshot.
type Manifest struct {
	File string `json:"file"`
	LSN  uint64 `json:"lsn"`
	Keys int64  `json:"keys"`
}

// crcWriter mirrors everything written through it into a running CRC32C.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	return n, err
}

// crcReader mirrors everything read through it into a running CRC32C.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	return n, err
}

// snapshotPath names a snapshot file by the LSN it is stamped with.
func snapshotPath(dir string, lsn uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", lsn))
}

// Write streams a snapshot stamped with lsn into dir. scan must call
// emit once per key/value pair; ordering does not matter. The file is
// durable (written to a temp name, fsynced, renamed, directory
// fsynced) when Write returns, but NOT yet installed — call Publish
// after any in-flight readers of the scanned structure are done.
// It returns the snapshot's file name (within dir) and the pair count.
func Write(dir string, lsn uint64, scan func(emit func(key int64, value string) error) error) (file string, keys int64, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, err
	}
	final := snapshotPath(dir, lsn)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", 0, err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()

	// The CRC sits under the buffer, so it sees each 64 KiB flush once.
	// Every record's header reuses one array and its value is copied
	// straight into the buffer, so Write allocates nothing per record.
	cw := &crcWriter{w: f}
	bw := bufio.NewWriterSize(cw, ioBufferSize)
	var hdr [headerSize]byte
	copy(hdr[0:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:12], version)
	binary.LittleEndian.PutUint64(hdr[12:20], lsn)
	if _, err = bw.Write(hdr[:]); err != nil {
		return "", 0, err
	}
	var count int64
	var rec [recordSize]byte
	emit := func(key int64, value string) error {
		rec[0] = tagRecord
		binary.LittleEndian.PutUint64(rec[1:9], uint64(key))
		binary.LittleEndian.PutUint32(rec[9:13], uint32(len(value)))
		if _, werr := bw.Write(rec[:]); werr != nil {
			return werr
		}
		if _, werr := bw.WriteString(value); werr != nil {
			return werr
		}
		count++
		return nil
	}
	if err = scan(emit); err != nil {
		return "", 0, err
	}
	var end [9]byte
	end[0] = tagEnd
	binary.LittleEndian.PutUint64(end[1:9], uint64(count))
	if _, err = bw.Write(end[:]); err != nil {
		return "", 0, err
	}
	// Flush first: the CRC covers every byte before it.
	if err = bw.Flush(); err != nil {
		return "", 0, err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], cw.crc)
	if _, err = f.Write(crc[:]); err != nil {
		return "", 0, err
	}
	if err = f.Sync(); err != nil {
		return "", 0, err
	}
	if err = f.Close(); err != nil {
		return "", 0, err
	}
	if err = os.Rename(tmp, final); err != nil {
		return "", 0, err
	}
	if err = syncDir(dir); err != nil {
		return "", 0, err
	}
	return filepath.Base(final), count, nil
}

// Publish installs file (previously produced by Write) as the current
// snapshot by atomically replacing the MANIFEST, then best-effort
// removes superseded snapshot files. An error means the new snapshot
// may not be installed, so the caller must keep the WAL history it
// covers.
func Publish(dir, file string, lsn uint64, keys int64) error {
	data, err := json.Marshal(Manifest{File: file, LSN: lsn, Keys: keys})
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := writeSynced(tmp, append(data, '\n')); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	// Older snapshots are superseded; losing this cleanup to a crash
	// only wastes disk, so errors are ignored.
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	for _, e := range ents {
		name := e.Name()
		if name == file || !strings.HasPrefix(name, "snap-") {
			continue
		}
		if strings.HasSuffix(name, ".snap") || strings.HasSuffix(name, ".snap.tmp") {
			os.Remove(filepath.Join(dir, name))
		}
	}
	return nil
}

// Load reads the installed snapshot and returns its stamped LSN and
// pair count, calling apply once per pair. A missing manifest returns
// ErrNoSnapshot (recover from the WAL alone); an unreadable or corrupt
// snapshot returns a loud error — silently starting empty would turn a
// disk fault into data loss.
//
// Load is ReadSorted plus an apply order, so the whole file is
// verified before the first apply: on any error apply has not been
// called, and the caller's structure is untouched.
//
// apply sees the pairs in level order of the balanced BST over their
// keys: the median first, then the medians of both halves, left to
// right, level by level. Inserting them in that order into an empty
// unbalanced BST builds a tree of height ⌈log2(keys+1)⌉. Level order
// rather than pre-order (median, then the whole left half, then the
// right), which builds the same single tree, because a forest routes
// each key to a shard by hash and each shard inserts only its share of
// the order: on a 2^15−1-key snapshot split over 4 shards, a shard's
// share of a pre-order built trees hundreds to thousands of nodes
// deep, and its share of a level order about 35.
func Load(dir string, apply func(key int64, value string) error) (lsn uint64, keys int64, err error) {
	lsn, ks, vs, err := ReadSorted(dir)
	if err != nil {
		return 0, 0, err
	}
	if err := levelOrder(len(ks), func(i int) error { return apply(ks[i], vs[i]) }); err != nil {
		return 0, 0, err
	}
	return lsn, int64(len(ks)), nil
}

// ReadSorted reads the installed snapshot and returns its stamped LSN
// and its pairs in ascending key order, values index-aligned with keys.
// A missing manifest returns ErrNoSnapshot; an unreadable or corrupt
// snapshot returns a loud error and no pairs.
//
// It verifies the whole file before it returns a pair: header, tags
// and lengths, the trailer's record count and CRC, that nothing follows
// the trailer, the manifest's LSN and key count, and that no key
// repeats. The manifest's key count sizes the two result slices once,
// after checking that the file is long enough to hold that many
// records. The file streams through a 64 KiB buffer, so past those
// slices the only allocations that grow with the file are the value
// strings.
func ReadSorted(dir string) (lsn uint64, keys []int64, values []string, err error) {
	mdata, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return 0, nil, nil, ErrNoSnapshot
	}
	if err != nil {
		return 0, nil, nil, err
	}
	var m Manifest
	if err := json.Unmarshal(mdata, &m); err != nil {
		return 0, nil, nil, fmt.Errorf("snapshot: corrupt manifest: %w", err)
	}
	f, err := os.Open(filepath.Join(dir, m.File))
	if err != nil {
		return 0, nil, nil, fmt.Errorf("snapshot: manifest names %s: %w", m.File, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, nil, nil, fmt.Errorf("snapshot: %s: %w", m.File, err)
	}
	keys, values, err = readVerified(f, st.Size(), m)
	if err != nil {
		return 0, nil, nil, fmt.Errorf("snapshot: %s: %w", m.File, err)
	}
	return m.LSN, keys, values, nil
}

// readVerified reads a whole snapshot file of the given size and checks
// it against its manifest, returning its pairs sorted by key. Every
// check ReadSorted promises happens here, before any pair leaves.
func readVerified(f io.ReaderAt, size int64, m Manifest) (keys []int64, values []string, err error) {
	// The stored CRC covers every byte before its own four. The CRC
	// sits under the buffer, over exactly those bytes, so it sees each
	// 64 KiB read once.
	cr := &crcReader{r: io.NewSectionReader(f, 0, max(size-4, 0))}
	r := bufio.NewReaderSize(cr, ioBufferSize)
	off := int64(0)
	read := func(p []byte) error {
		n, err := io.ReadFull(r, p)
		off += int64(n)
		return err
	}
	// The header, each record's fixed part and the trailer are read into
	// buf, and each value into value. Both are reused, so a record
	// allocates only its value string.
	var buf [headerSize]byte
	var value []byte
	hdr := buf[:]
	if err := read(hdr); err != nil {
		return nil, nil, fmt.Errorf("short header: %w", err)
	}
	if string(hdr[0:8]) != magic {
		return nil, nil, errors.New("bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != version {
		return nil, nil, fmt.Errorf("unsupported version %d", v)
	}
	if lsn := binary.LittleEndian.Uint64(hdr[12:20]); lsn != m.LSN {
		return nil, nil, fmt.Errorf("LSN %d does not match manifest %d", lsn, m.LSN)
	}
	// Every record takes at least recordSize bytes, so the file's size
	// bounds how many it can hold; the manifest's count must fit within
	// that bound before it sizes the slices.
	if room := (size - headerSize - trailerSize) / recordSize; m.Keys < 0 || m.Keys > room {
		return nil, nil, fmt.Errorf("manifest says %d keys, the %d-byte file holds at most %d", m.Keys, size, max(room, 0))
	}
	keys = make([]int64, 0, m.Keys)
	values = make([]string, 0, m.Keys)
	rec := buf[:recordSize]
	for {
		if err := read(rec[:1]); err != nil {
			return nil, nil, fmt.Errorf("truncated at record %d: %w", len(keys), err)
		}
		if rec[0] == tagEnd {
			break
		}
		if rec[0] != tagRecord {
			return nil, nil, fmt.Errorf("bad tag %#x at record %d", rec[0], len(keys))
		}
		if len(keys) == cap(keys) {
			return nil, nil, fmt.Errorf("more records than the manifest's %d keys", m.Keys)
		}
		if err := read(rec[1:]); err != nil {
			return nil, nil, fmt.Errorf("truncated record %d: %w", len(keys), err)
		}
		key := int64(binary.LittleEndian.Uint64(rec[1:9]))
		vlen := binary.LittleEndian.Uint32(rec[9:13])
		if vlen > maxValueBytes || int64(vlen) > size-off-trailerSize {
			return nil, nil, fmt.Errorf("implausible value length %d at record %d", vlen, len(keys))
		}
		if cap(value) < int(vlen) {
			value = make([]byte, vlen)
		}
		value = value[:vlen]
		if err := read(value); err != nil {
			return nil, nil, fmt.Errorf("truncated value at record %d: %w", len(keys), err)
		}
		keys = append(keys, key)
		values = append(values, string(value))
	}
	count := buf[:8]
	if err := read(count); err != nil {
		return nil, nil, fmt.Errorf("truncated trailer: %w", err)
	}
	if n := int64(binary.LittleEndian.Uint64(count)); n != int64(len(keys)) {
		return nil, nil, fmt.Errorf("trailer says %d records, read %d", n, len(keys))
	}
	// The trailer's count must end the CRC's bytes; reaching their end
	// has also run all of them through the CRC.
	if _, err := r.ReadByte(); err != io.EOF {
		if err != nil {
			return nil, nil, err
		}
		return nil, nil, errors.New("bytes after the trailer")
	}
	stored := buf[:4]
	if _, err := f.ReadAt(stored, size-4); err != nil {
		return nil, nil, fmt.Errorf("truncated trailer: %w", err)
	}
	if got := binary.LittleEndian.Uint32(stored); got != cr.crc {
		return nil, nil, fmt.Errorf("CRC mismatch (stored %08x, computed %08x)", got, cr.crc)
	}
	if int64(len(keys)) != m.Keys {
		return nil, nil, fmt.Errorf("holds %d records, manifest says %d", len(keys), m.Keys)
	}
	// The scan writes keys ascending, so the sort is almost never needed.
	if !slices.IsSorted(keys) {
		sort.Sort(byKey{keys, values})
	}
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return nil, nil, fmt.Errorf("key %d appears twice", keys[i])
		}
	}
	return keys, values, nil
}

// byKey sorts index-aligned key and value slices by key.
type byKey struct {
	keys   []int64
	values []string
}

func (p byKey) Len() int           { return len(p.keys) }
func (p byKey) Less(i, j int) bool { return p.keys[i] < p.keys[j] }
func (p byKey) Swap(i, j int) {
	p.keys[i], p.keys[j] = p.keys[j], p.keys[i]
	p.values[i], p.values[j] = p.values[j], p.values[i]
}

// levelOrder calls visit(i) for each i in [0, n) in level order of the
// balanced BST over that range (each subrange's root is its middle
// index), left to right within a level. It keeps no queue: each level
// is reached by its own descent from the root, recursing O(log n) deep,
// and all the descents together make O(n) calls.
func levelOrder(n int, visit func(i int) error) error {
	for depth := 0; ; depth++ {
		found, err := visitLevel(0, n, depth, visit)
		if err != nil || !found {
			return err
		}
	}
}

// visitLevel visits, left to right, the roots of the subranges depth
// levels below [lo, hi)'s root, and reports whether there were any.
func visitLevel(lo, hi, depth int, visit func(i int) error) (bool, error) {
	if lo >= hi {
		return false, nil
	}
	mid := lo + (hi-lo)/2
	if depth == 0 {
		return true, visit(mid)
	}
	left, err := visitLevel(lo, mid, depth-1, visit)
	if err != nil {
		return false, err
	}
	right, err := visitLevel(mid+1, hi, depth-1, visit)
	return left || right, err
}

// writeSynced creates path holding data and fsyncs it, returning the
// first error from create, write, Sync or Close: a file whose fsync
// failed must not be renamed into place.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so renames in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
