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
// Load decides the shape of the recovered tree. The scan writes keys in
// ascending order, and Citrus is an unbalanced BST: inserting that
// stream as read builds a list in quadratic time. Load therefore
// verifies the whole file first, sorts the pairs, and hands them to its
// caller in level order of the balanced tree over them — the median,
// then the medians of both halves, and so on — so a plain insert
// callback builds a tree of logarithmic height.
package snapshot

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
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
	// ioBufferSize is the bufio buffer Write and Load stream through,
	// so a snapshot costs one syscall per 64 KiB rather than two per
	// pair.
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

	bw := bufio.NewWriterSize(f, ioBufferSize)
	cw := &crcWriter{w: bw}
	var hdr [headerSize]byte
	copy(hdr[0:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:12], version)
	binary.LittleEndian.PutUint64(hdr[12:20], lsn)
	if _, err = cw.Write(hdr[:]); err != nil {
		return "", 0, err
	}
	var count int64
	emit := func(key int64, value string) error {
		var rec [recordSize]byte
		rec[0] = tagRecord
		binary.LittleEndian.PutUint64(rec[1:9], uint64(key))
		binary.LittleEndian.PutUint32(rec[9:13], uint32(len(value)))
		if _, werr := cw.Write(rec[:]); werr != nil {
			return werr
		}
		if _, werr := io.WriteString(cw, value); werr != nil {
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
	if _, err = cw.Write(end[:]); err != nil {
		return "", 0, err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], cw.crc)
	if _, err = bw.Write(crc[:]); err != nil {
		return "", 0, err
	}
	if err = bw.Flush(); err != nil {
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
// The whole file is verified before the first apply: header, tags and
// lengths, the trailer's record count and CRC, the manifest's LSN and
// key count, and that no key repeats. On any error apply has not been
// called, so the caller's structure is untouched. The pairs are held
// in one transient slice, sized once from the manifest's key count
// after checking that the file is long enough to hold that many
// records.
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
	mdata, err := os.ReadFile(filepath.Join(dir, manifestName))
	if os.IsNotExist(err) {
		return 0, 0, ErrNoSnapshot
	}
	if err != nil {
		return 0, 0, err
	}
	var m Manifest
	if err := json.Unmarshal(mdata, &m); err != nil {
		return 0, 0, fmt.Errorf("snapshot: corrupt manifest: %w", err)
	}
	f, err := os.Open(filepath.Join(dir, m.File))
	if err != nil {
		return 0, 0, fmt.Errorf("snapshot: manifest names %s: %w", m.File, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("snapshot: %s: %w", m.File, err)
	}
	recs, err := readVerified(bufio.NewReaderSize(f, ioBufferSize), st.Size(), m)
	if err != nil {
		return 0, 0, fmt.Errorf("snapshot: %s: %w", m.File, err)
	}
	err = levelOrder(len(recs), func(i int) error { return apply(recs[i].key, recs[i].value) })
	if err != nil {
		return 0, 0, err
	}
	return m.LSN, int64(len(recs)), nil
}

// pair is one snapshot record held between verification and apply.
type pair struct {
	key   int64
	value string
}

// readVerified reads a whole snapshot file of the given size and checks
// it against its manifest, returning the pairs sorted by key. Every
// check Load promises happens here, before any pair leaves.
func readVerified(r io.Reader, size int64, m Manifest) ([]pair, error) {
	crc := uint32(0)
	off := int64(0)
	read := func(p []byte) error {
		n, err := io.ReadFull(r, p)
		crc = crc32.Update(crc, castagnoli, p[:n])
		off += int64(n)
		return err
	}
	var hdr [headerSize]byte
	if err := read(hdr[:]); err != nil {
		return nil, fmt.Errorf("short header: %w", err)
	}
	if string(hdr[0:8]) != magic {
		return nil, errors.New("bad magic")
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != version {
		return nil, fmt.Errorf("unsupported version %d", v)
	}
	if lsn := binary.LittleEndian.Uint64(hdr[12:20]); lsn != m.LSN {
		return nil, fmt.Errorf("LSN %d does not match manifest %d", lsn, m.LSN)
	}
	// Every record takes at least recordSize bytes, so the file's size
	// bounds how many it can hold; the manifest's count must fit within
	// that bound before it sizes the buffer.
	if room := (size - headerSize - trailerSize) / recordSize; m.Keys < 0 || m.Keys > room {
		return nil, fmt.Errorf("manifest says %d keys, the %d-byte file holds at most %d", m.Keys, size, max(room, 0))
	}
	recs := make([]pair, 0, m.Keys)
	var value []byte
	for {
		var tag [1]byte
		if err := read(tag[:]); err != nil {
			return nil, fmt.Errorf("truncated at record %d: %w", len(recs), err)
		}
		if tag[0] == tagEnd {
			break
		}
		if tag[0] != tagRecord {
			return nil, fmt.Errorf("bad tag %#x at record %d", tag[0], len(recs))
		}
		if len(recs) == cap(recs) {
			return nil, fmt.Errorf("more records than the manifest's %d keys", m.Keys)
		}
		var rec [recordSize - 1]byte
		if err := read(rec[:]); err != nil {
			return nil, fmt.Errorf("truncated record %d: %w", len(recs), err)
		}
		key := int64(binary.LittleEndian.Uint64(rec[0:8]))
		vlen := binary.LittleEndian.Uint32(rec[8:12])
		if vlen > maxValueBytes || int64(vlen) > size-off-trailerSize {
			return nil, fmt.Errorf("implausible value length %d at record %d", vlen, len(recs))
		}
		if cap(value) < int(vlen) {
			value = make([]byte, vlen)
		}
		value = value[:vlen]
		if err := read(value); err != nil {
			return nil, fmt.Errorf("truncated value at record %d: %w", len(recs), err)
		}
		recs = append(recs, pair{key, string(value)})
	}
	var count [8]byte
	if err := read(count[:]); err != nil {
		return nil, fmt.Errorf("truncated trailer: %w", err)
	}
	var stored [4]byte // the CRC, over everything before it
	if _, err := io.ReadFull(r, stored[:]); err != nil {
		return nil, fmt.Errorf("truncated trailer: %w", err)
	}
	if n := int64(binary.LittleEndian.Uint64(count[:])); n != int64(len(recs)) {
		return nil, fmt.Errorf("trailer says %d records, read %d", n, len(recs))
	}
	if got := binary.LittleEndian.Uint32(stored[:]); got != crc {
		return nil, fmt.Errorf("CRC mismatch (stored %08x, computed %08x)", got, crc)
	}
	if int64(len(recs)) != m.Keys {
		return nil, fmt.Errorf("holds %d records, manifest says %d", len(recs), m.Keys)
	}
	slices.SortFunc(recs, func(a, b pair) int { return cmp.Compare(a.key, b.key) })
	for i := 1; i < len(recs); i++ {
		if recs[i].key == recs[i-1].key {
			return nil, fmt.Errorf("key %d appears twice", recs[i].key)
		}
	}
	return recs, nil
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
