package main

import (
	"fmt"
	"time"

	citrus "github.com/go-citrus/citrus"
	"github.com/go-citrus/citrus/rcu"
)

// newRCUFlavor maps a -flavor name to a factory producing one flavor
// instance per call (the forest calls it once per shard, so shards
// never share grace-period state). The three names cover the
// library's reclamation designs: "scalable" is the per-reader
// counter+flag rcu.Domain (the default and the paper's design),
// "classic" is the single-counter rcu.ClassicDomain, and "ebr" is the
// epoch-based rcu.EpochDomain. Every flavor returned here implements
// rcu.StallControl and rcu.StatsSource, which the server relies on for
// the stall detector and the degradation probes.
func newRCUFlavor(name string) (func() rcu.Flavor, error) {
	switch name {
	case "", "scalable":
		return func() rcu.Flavor { return rcu.NewDomain() }, nil
	case "classic":
		return func() rcu.Flavor { return rcu.NewClassicDomain() }, nil
	case "ebr":
		return func() rcu.Flavor { return rcu.NewEpochDomain() }, nil
	default:
		return nil, fmt.Errorf("unknown RCU flavor %q (want scalable, classic, or ebr)", name)
	}
}

// armStallDetector applies the shared stall-detector config to one
// shard's flavor, if the flavor supports it.
func armStallDetector(f rcu.Flavor, cfg kvConfig, shard int, onStall func(shard int, r rcu.StallReport)) {
	if sc, ok := f.(rcu.StallControl); ok && cfg.stallTimeout > 0 {
		sc.SetStallTimeout(cfg.stallTimeout)
		sc.SetStallHandler(func(r rcu.StallReport) { onStall(shard, r) })
	}
}

// newForest builds the server's store: a citrus.Forest of cfg.shards
// Citrus trees (one shard is exactly one tree and one flavor). Every
// shard gets its own instance of the selected flavor and the same stall
// detector, so a stalled reader in one shard leaves the siblings' grace
// periods live.
func newForest(cfg kvConfig, onStall func(shard int, r rcu.StallReport)) (*citrus.Forest[int64, string], error) {
	newFlavor, err := newRCUFlavor(cfg.flavor)
	if err != nil {
		return nil, err
	}
	f := citrus.NewForest[int64, string](cfg.shards, citrus.WithShardFlavor[int64](newFlavor))
	for i := 0; i < f.NumShards(); i++ {
		armStallDetector(f.Flavor(i), cfg, i, onStall)
	}
	return f, nil
}

// storeHandle is the per-connection view of the store: the subset of
// citrus.ForestHandle the protocol uses. The forest's handle satisfies
// it directly, and durableHandle wraps one to log its writes.
type storeHandle interface {
	Get(key int64) (string, bool)
	Insert(key int64, value string) bool
	// DeleteWithin bounds only the grace-period wait of a two-child
	// delete, by d from the call (d ≤ 0: no bound); a miss or a
	// one-child delete arms no timer.
	DeleteWithin(key int64, d time.Duration) (bool, error)
	// RangeScanLimit is the bounded scan both faces serve: at most limit
	// pairs, globally ascending and weakly consistent (every key present
	// for the whole scan appears exactly once; keys updated concurrently
	// may or may not be seen). With several shards it buffers at most
	// limit pairs per shard however large the range is, which is why the
	// server routes every capped scan through it rather than counting
	// inside a plain RangeScan callback.
	RangeScanLimit(lo, hi int64, limit int, fn func(key int64, value string) bool)
	Close()
}
