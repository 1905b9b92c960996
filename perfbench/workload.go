package main

import (
	"fmt"
	"math/rand/v2"
)

// A workload is one traffic mix against one server configuration. The
// seeded op streams below are the only input the server sees; the TCP
// run and the traced in-process replay draw from the same streams.
type workload struct {
	name      string
	keyspace  int64 // keys are drawn uniformly from [0, keyspace)
	resident  int   // keys inserted, in seeded random order, before the window
	mix       [4]int
	scanWidth int64 // SCAN lo lo+scanWidth scanLimit
	scanLimit int
	shards    int
	durable   bool // the measured server logs every write to a WAL on disk
	// serveArgs configure the measured server. With prefillArgs set, the
	// prefill runs on an earlier lifetime of the server over the same WAL
	// directory, which is stopped with SIGTERM (it must exit 0) before
	// the measured lifetime recovers from it.
	serveArgs    []string
	prefillArgs  []string
	snapshotWait bool // the prefill lifetime must snapshot all of the prefill before it stops
	// restartVerify ends the run with SIGTERM (exit 0 required), a
	// restart, and a full check of every acknowledged write; otherwise
	// the final check runs on the measured server itself.
	restartVerify bool
	// setups is how many times one run builds the measured state; the
	// window runs on the first one, and setup_s and recovery_s are the
	// medians over all of them.
	setups int
	// bootProbes is how many extra boots of an empty in-memory server
	// each setup times for recovery_s; durable workloads recover data
	// and take their samples from the setups alone.
	bootProbes int
	// replayOps is how many ops of each connection's stream the traced
	// replay runs, per store.
	replayOps int
}

// Indices into workload.mix, which holds percentages summing to 100.
const (
	opGet = iota
	opSet
	opDel
	opScan
)

// verifyPage is the SCAN limit of the full-state verification passes.
// It matches durable-churn's scan limit, so every workload's SCAN
// samples have the same reply size; it is well under the server's cap
// of 1000 pairs per SCAN.
const verifyPage = 100

var workloads = []workload{
	{
		// Figure 10b of the paper served over TCP: tree descent, the RCU
		// read side and the protocol do nearly all the work.
		name: "point-read", keyspace: 200_000, resident: 100_000,
		mix: [4]int{98, 1, 1, 0}, shards: 1,
		serveArgs: []string{"-shards", "1"},
		setups:    3, bootProbes: 8, replayOps: 50_000,
	},
	{
		// Figure 10c's 50/50 read/update ratio on a sharded durable store:
		// group commit, fsync, fuzzy snapshots, grace periods and the
		// forest's per-shard scan merge do the work.
		name: "durable-churn", keyspace: 50_000, resident: 25_000,
		mix: [4]int{40, 25, 25, 10}, scanWidth: 1000, scanLimit: 100,
		shards: 4, durable: true,
		// The prefill lifetime logs without fsync and never snapshots, so
		// the measured lifetime recovers by replaying the WAL in the
		// prefill's random order: the forest keeps its random shape, and
		// the measured server starts with a real recovery.
		prefillArgs:   []string{"-shards", "4", "-fsync", "none", "-snapshot-every", "0"},
		serveArgs:     []string{"-shards", "4", "-fsync", "group", "-snapshot-every", "10000"},
		restartVerify: true,
		setups:        3, replayOps: 20_000,
	},
	{
		// What users get after a restart: recovery inserts the snapshot's
		// ascending key stream into the unbalanced tree, and every read
		// after it walks the shape that leaves.
		name: "restart-read", keyspace: 60_000, resident: 30_000,
		mix: [4]int{98, 1, 1, 0}, shards: 1, durable: true,
		prefillArgs:  []string{"-shards", "1", "-fsync", "none", "-snapshot-every", "30000"},
		serveArgs:    []string{"-shards", "1", "-fsync", "group"},
		snapshotWait: true,
		setups:       5, replayOps: 4_000,
	},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// numConns is the closed loop's width: one caller per connection, each
// waiting for its reply before sending again. Connection c owns the keys
// ≡ c (mod numConns), so its model of those keys is exact.
const numConns = 2

type op struct {
	kind int
	key  int64 // SCAN: lo
}

// opStream is connection conn's seeded op sequence.
type opStream struct {
	w    *workload
	conn int
	rng  *rand.Rand
}

func newOpStream(w *workload, seed uint64, conn int) *opStream {
	return &opStream{w: w, conn: conn, rng: rand.New(rand.NewPCG(seed, uint64(conn)+1))}
}

func (s *opStream) next() op {
	r := s.rng.IntN(100)
	kind := opGet
	for acc := 0; kind < opScan; kind++ {
		acc += s.w.mix[kind]
		if r < acc {
			break
		}
	}
	if kind == opScan {
		return op{kind: opScan, key: s.rng.Int64N(s.w.keyspace)}
	}
	return op{kind: kind, key: numConns*s.rng.Int64N(s.w.keyspace/numConns) + int64(s.conn)}
}

// prefillOrder returns connection conn's share of the resident keys in
// the seeded random order they are inserted in. Ascending order would
// build a list-shaped tree; random order builds the expected O(log n)
// shape the paper's figures assume.
func prefillOrder(w *workload, seed uint64, conn int) []int64 {
	rng := rand.New(rand.NewPCG(seed, 1000+uint64(conn)))
	own := w.keyspace / numConns
	perm := rng.Perm(int(own))
	n := w.resident / numConns
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = numConns*int64(perm[i]) + int64(conn)
	}
	return keys
}

// model is one connection's exact view of the keys it owns: no other
// connection writes them, so every reply about them is predictable.
type model struct {
	conn    int
	present []bool
	gen     []uint32 // per-key generation, bumped by every effective SET
	unknown []bool   // fate lost to a transport error; not checked again
}

func newModel(w *workload, conn int) *model {
	n := w.keyspace / numConns
	return &model{conn: conn, present: make([]bool, n), gen: make([]uint32, n), unknown: make([]bool, n)}
}

func (m *model) idx(key int64) int { return int(key / numConns) }

// covers reports whether key is inside the modelled keyspace.
func (m *model) covers(key int64) bool { return key >= 0 && key/numConns < int64(len(m.present)) }

// valueLen is the fixed length of every value the benchmark writes.
const valueLen = 17

// appendValue appends the value for key at generation gen: fixed-length
// ASCII carrying both, so a reply can be checked against the key it
// answers and against the write that produced it.
func appendValue(b []byte, key int64, gen uint32) []byte {
	b = append(b, 'k')
	b = appendPadded(b, uint64(key), 7)
	b = append(b, '.', 'g')
	return appendPadded(b, uint64(gen), 7)
}

func appendPadded(b []byte, v uint64, width int) []byte {
	var d [20]byte
	i := len(d)
	for v > 0 || i == len(d) {
		i--
		d[i] = byte('0' + v%10)
		v /= 10
	}
	for n := len(d) - i; n < width; n++ {
		b = append(b, '0')
	}
	return append(b, d[i:]...)
}

// valueKeyMatches reports whether v is a well-formed value for key (any
// generation) — the check applied to keys another connection owns.
func valueKeyMatches(v []byte, key int64) bool {
	if len(v) != valueLen {
		return false
	}
	want := appendPadded(make([]byte, 0, 8), uint64(key), 7)
	return v[0] == 'k' && string(v[1:8]) == string(want) && v[8] == '.' && v[9] == 'g'
}
