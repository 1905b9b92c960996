package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	citrus "github.com/go-citrus/citrus"
	"github.com/go-citrus/citrus/internal/snapshot"
	"github.com/go-citrus/citrus/internal/wal"
)

// The durable store adds a write-ahead log and fuzzy snapshots to the
// server's forest, so a kvserver started with -wal-dir recovers every
// acknowledged write after a crash.
//
// The one invariant everything rests on: a write is APPLIED to the
// in-memory store BEFORE its record is APPENDED to the WAL, and both
// happen under the key's stripe lock, so for any single key the WAL
// record order equals the apply order. Records are appended only for
// EFFECTIVE writes (an Insert that returned true, a delete that
// deleted), so each key's log history strictly alternates SET/DEL.
// Together these make the fuzzy snapshot sound: when the snapshotter
// captures snapLSN = TailLSN, every record ≤ snapLSN is already
// applied, so the scan observes each key at some point AT OR AFTER
// snapLSN — and replaying the suffix (LSN > snapLSN) of an alternating
// effective history onto any such state converges to the true final
// state (the full argument is in docs/DURABILITY.md).
//
// Acknowledgment order is the usual WAL discipline: apply, append,
// then block on WaitDurable before replying to the client — so under
// -fsync always/group an acked write is on disk, while -fsync none
// acknowledges from the user-space buffer and exists to be the
// crash-torture negative control.

// Record encoding: one byte op tag, 8-byte little-endian key, and for
// SET the value bytes.
const (
	opSet = 0x01
	opDel = 0x02
)

func encodeSet(key int64, value string) []byte {
	rec := make([]byte, 9+len(value))
	rec[0] = opSet
	binary.LittleEndian.PutUint64(rec[1:9], uint64(key))
	copy(rec[9:], value)
	return rec
}

func encodeDel(key int64) []byte {
	rec := make([]byte, 9)
	rec[0] = opDel
	binary.LittleEndian.PutUint64(rec[1:9], uint64(key))
	return rec
}

func decodeRecord(payload []byte) (op byte, key int64, value string, err error) {
	if len(payload) < 9 {
		return 0, 0, "", fmt.Errorf("wal record too short: %d bytes", len(payload))
	}
	op = payload[0]
	if op != opSet && op != opDel {
		return 0, 0, "", fmt.Errorf("wal record has unknown op %#x", op)
	}
	key = int64(binary.LittleEndian.Uint64(payload[1:9]))
	if op == opSet {
		value = string(payload[9:])
	} else if len(payload) != 9 {
		return 0, 0, "", fmt.Errorf("wal DEL record carries %d trailing bytes", len(payload)-9)
	}
	return op, key, value, nil
}

// numStripes is the write-serialization fan-out: writes to the same
// stripe apply+append atomically with respect to each other. 64 keeps
// per-key ordering cheap while letting unrelated keys proceed in
// parallel.
const numStripes = 64

func stripeOf(key int64) int {
	// Fibonacci hashing mixes low-entropy keys across stripes.
	return int((uint64(key) * 0x9E3779B97F4A7C15) >> 58)
}

// recoverySummary is the structured report of one boot's recovery,
// served as the kvserver_recovery_* gauges.
type recoverySummary struct {
	SnapshotLSN     uint64
	SnapshotKeys    int64
	WALRecords      int64
	RecordsReplayed int64
	ReplaySets      int64
	ReplayDels      int64
	TornBytes       int64
	WALSegments     int
	DurationNanos   int64
}

// durableStore is what crash durability adds to the server's forest:
// the WAL, recovery, and the background snapshotter. Reads go to the
// forest directly; writes go through durableHandle.
type durableStore struct {
	f *citrus.Forest[int64, string]

	log      *wal.Log
	dir      string
	snapEver int

	stripes [numStripes]sync.Mutex

	recovery recoverySummary

	sinceSnap   atomic.Int64
	snapshots   atomic.Int64
	snapErrs    atomic.Int64
	lastSnapLSN atomic.Uint64

	snapc chan struct{}
	stopc chan struct{}
	donec chan struct{}
}

// newDurableStore recovers the store's state from cfg.walDir (latest
// valid snapshot, then the WAL suffix, tolerating a torn tail) into f,
// and arms the log and the snapshotter. The caller owns f and closes
// it after Close.
func newDurableStore(f *citrus.Forest[int64, string], cfg kvConfig) (*durableStore, error) {
	pol, err := wal.ParsePolicy(cfg.fsync)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	d := &durableStore{
		f:        f,
		dir:      cfg.walDir,
		snapEver: cfg.snapEvery,
		snapc:    make(chan struct{}, 1),
		stopc:    make(chan struct{}),
		donec:    make(chan struct{}),
	}

	// Phase 1: the snapshot base image. Load verifies the whole file
	// before the first insert and hands the pairs over in level order,
	// so these plain inserts build a log-depth tree, or log-depth
	// shards, out of the scan's ascending key stream.
	h := f.NewHandle()
	snapLSN, snapKeys, err := snapshot.Load(cfg.walDir, func(k int64, v string) error {
		if !h.Insert(k, v) {
			return fmt.Errorf("snapshot key %d already present", k)
		}
		return nil
	})
	if err != nil && !errors.Is(err, snapshot.ErrNoSnapshot) {
		h.Close()
		return nil, fmt.Errorf("loading snapshot: %w", err)
	}
	d.recovery.SnapshotLSN = snapLSN
	d.recovery.SnapshotKeys = snapKeys

	// Phase 2: open the log (truncating a torn tail) and replay the
	// suffix. Replayed SETs may hit keys the fuzzy snapshot already saw
	// in a newer state, and replayed DELs may miss — both are the
	// convergence the header comment describes, not errors.
	l, rinfo, err := wal.Open(cfg.walDir, wal.Options{Policy: pol})
	if err != nil {
		h.Close()
		return nil, fmt.Errorf("opening wal: %w", err)
	}
	d.log = l
	d.recovery.WALRecords = rinfo.Records
	d.recovery.TornBytes = rinfo.TornBytes
	d.recovery.WALSegments = rinfo.Segments
	if rinfo.TornBytes > 0 {
		log.Printf("kvserver: wal %s: truncated %d torn byte(s) from %s", cfg.walDir, rinfo.TornBytes, rinfo.TornFile)
	}
	err = l.Replay(wal.LSN(snapLSN), func(lsn wal.LSN, payload []byte) error {
		op, key, value, derr := decodeRecord(payload)
		if derr != nil {
			return fmt.Errorf("lsn %d: %w", lsn, derr)
		}
		if op == opSet {
			h.Insert(key, value)
			d.recovery.ReplaySets++
		} else {
			h.DeleteCtx(context.Background(), key) //nolint:errcheck // a miss is expected convergence
			d.recovery.ReplayDels++
		}
		d.recovery.RecordsReplayed++
		return nil
	})
	h.Close()
	if err != nil {
		l.Close()
		return nil, fmt.Errorf("replaying wal: %w", err)
	}
	d.recovery.DurationNanos = time.Since(start).Nanoseconds()
	d.lastSnapLSN.Store(snapLSN)
	// Replayed records count against the next snapshot interval, so a
	// server that crashes faster than -snapshot-every still converges
	// to a snapshot instead of replaying an ever-longer log each boot.
	d.sinceSnap.Store(d.recovery.RecordsReplayed)

	go d.snapshotter()
	if d.recovery.SnapshotKeys > 0 || d.recovery.RecordsReplayed > 0 {
		log.Printf("kvserver: recovered %d key(s) from snapshot lsn %d + %d wal record(s) in %v",
			d.recovery.SnapshotKeys, d.recovery.SnapshotLSN, d.recovery.RecordsReplayed,
			time.Duration(d.recovery.DurationNanos))
	}
	return d, nil
}

// noteWrite counts one logged write toward the snapshot trigger.
func (d *durableStore) noteWrite() {
	if d.snapEver <= 0 {
		return
	}
	if d.sinceSnap.Add(1) >= int64(d.snapEver) {
		select {
		case d.snapc <- struct{}{}:
		default:
		}
	}
}

// snapshotter runs fuzzy snapshots when the write counter trips.
func (d *durableStore) snapshotter() {
	defer close(d.donec)
	for {
		select {
		case <-d.stopc:
			return
		case <-d.snapc:
		}
		if err := d.snapshotOnce(); err != nil {
			d.snapErrs.Add(1)
			log.Printf("kvserver: snapshot failed: %v", err)
		}
	}
}

// snapshotOnce takes one fuzzy snapshot and truncates the log behind
// it. The ordering is the load-bearing part:
//
//  1. capture snapLSN = TailLSN — every record ≤ snapLSN is applied
//     (append happens after apply, under the stripe lock);
//  2. Cut the active segment so truncation later can drop whole
//     segments up to snapLSN;
//  3. scan the store batched (read-side sections dropped every batch,
//     so the snapshot never parks grace periods) into a checksummed
//     temp file, fsync, rename;
//  4. Publish the manifest (the commit point), then TruncateBefore
//     drops the WAL segments the snapshot supersedes.
//
// A crash anywhere in this sequence leaves either the old snapshot +
// full log, or the new snapshot + suffix — both recover exactly.
func (d *durableStore) snapshotOnce() error {
	d.sinceSnap.Store(0)
	snapLSN := d.log.TailLSN()
	if err := d.log.Cut(); err != nil {
		return err
	}
	h := d.f.NewHandle()
	file, keys, err := snapshot.Write(d.dir, uint64(snapLSN), func(emit func(int64, string) error) error {
		var emitErr error
		h.ScanBatched(512, func(k int64, v string) bool {
			emitErr = emit(k, v)
			return emitErr == nil
		})
		return emitErr
	})
	h.Close()
	if err != nil {
		return err
	}
	if err := snapshot.Publish(d.dir, file, uint64(snapLSN), keys); err != nil {
		return err
	}
	if _, err := d.log.TruncateBefore(snapLSN); err != nil && !errors.Is(err, wal.ErrClosed) {
		return err
	}
	d.snapshots.Add(1)
	d.lastSnapLSN.Store(uint64(snapLSN))
	return nil
}

// Close stops the snapshotter, then flushes and closes the log, so
// every buffered record is durable before the process exits — the
// drain path's flush point.
func (d *durableStore) Close() {
	close(d.stopc)
	<-d.donec
	if err := d.log.Close(); err != nil {
		log.Printf("kvserver: wal close: %v", err)
	}
}

// durableHandle wraps one connection's forest handle: reads pass
// through, effective writes are logged and acknowledged only once
// durable.
type durableHandle struct {
	*citrus.ForestHandle[int64, string]
	d *durableStore
}

// logged appends an effective write's record (caller holds the key's
// stripe lock) and returns the LSN to wait on.
func (h *durableHandle) logged(rec []byte) (wal.LSN, error) {
	lsn, err := h.d.log.Append(rec)
	if err != nil {
		if errors.Is(err, wal.ErrClosed) {
			// Shutdown race: the store applied the write but the log is
			// closed. The drain path force-closes connections before it
			// closes the log, so no client can still be waiting on this
			// reply — the write is simply lost with the unacked window.
			return 0, nil
		}
		// A WAL that cannot append is a durability guarantee we can no
		// longer honor for ANY future ack; dying loudly beats silently
		// acknowledging writes into the void.
		panic(fmt.Sprintf("kvserver: wal append failed: %v", err))
	}
	return lsn, nil
}

func (h *durableHandle) Insert(key int64, value string) bool {
	st := &h.d.stripes[stripeOf(key)]
	st.Lock()
	ok := h.ForestHandle.Insert(key, value)
	var lsn wal.LSN
	if ok {
		lsn, _ = h.logged(encodeSet(key, value))
	}
	st.Unlock()
	if !ok {
		return false
	}
	h.d.noteWrite()
	h.waitDurable(lsn)
	return true
}

func (h *durableHandle) DeleteCtx(ctx context.Context, key int64) (bool, error) {
	st := &h.d.stripes[stripeOf(key)]
	st.Lock()
	// ok means the delete took effect (even when err reports the
	// grace-period wait timed out) — exactly the condition under which
	// the write must be logged.
	ok, err := h.ForestHandle.DeleteCtx(ctx, key)
	var lsn wal.LSN
	if ok {
		lsn, _ = h.logged(encodeDel(key))
	}
	st.Unlock()
	if !ok {
		return ok, err
	}
	h.d.noteWrite()
	h.waitDurable(lsn)
	return ok, err
}

// waitDurable blocks until lsn is durable under the configured policy.
// lsn 0 means the append was elided by the shutdown race — nothing to
// wait for.
func (h *durableHandle) waitDurable(lsn wal.LSN) {
	if lsn == 0 {
		return
	}
	if err := h.d.log.WaitDurable(lsn); err != nil && !errors.Is(err, wal.ErrClosed) {
		panic(fmt.Sprintf("kvserver: wal durability wait failed: %v", err))
	}
}
