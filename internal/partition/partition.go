// Package partition is the shared seeded key-partitioning helper behind
// every hash router in the repository: the relativistic hash table's
// bucket selection (internal/rhash) and the Citrus forest's shard
// router (citrus.Forest).
//
// The point of sharing one helper — and one explicit seed — is
// agreement: two routers built over the same key set must send every
// key to the same partition, or a key inserted through one router is
// invisible through the other. hash/maphash.MakeSeed returns a fresh
// random seed per call, so "make a new seed per structure" silently
// breaks that property the moment two structures are expected to agree
// (a forest and its rebuilt successor, a router and a debug tool
// inspecting its shards). Callers that need agreement pass the same
// Seed; callers that don't can use SharedSeed, one process-wide seed
// minted once.
package partition

import "hash/maphash"

// Hash returns the seeded hash of key. Equal keys hash equally under
// the same seed — across calls, goroutines, and separately constructed
// routers — which is the stability property the tests pin. Different
// seeds give independent hash functions (deliberately: a fresh seed per
// process keeps hash-flooding attackers guessing, exactly like Go's
// built-in maps).
func Hash[K comparable](seed maphash.Seed, key K) uint64 {
	return maphash.Comparable(seed, key)
}

// A Router deterministically assigns keys to one of n partitions under
// a fixed seed. The zero value is not usable; build one with NewRouter.
type Router[K comparable] struct {
	seed maphash.Seed
	n    uint64
}

// NewRouter returns a router over n partitions (n must be at least 1).
// Two routers built with the same seed and n agree on every key.
func NewRouter[K comparable](seed maphash.Seed, n int) Router[K] {
	if n < 1 {
		panic("partition: router needs at least 1 partition")
	}
	return Router[K]{seed: seed, n: uint64(n)}
}

// Partition returns key's partition in [0, n). With one partition it
// skips the hash, so a one-shard forest routes as cheaply as no router.
func (r Router[K]) Partition(key K) int {
	if r.n == 1 {
		return 0
	}
	return int(maphash.Comparable(r.seed, key) % r.n)
}

// N reports the number of partitions.
func (r Router[K]) N() int { return int(r.n) }

// sharedSeed is minted once per process, at init: every caller that
// does not need a caller-controlled seed shares it, so all their
// routers agree by default.
var sharedSeed = maphash.MakeSeed()

// SharedSeed returns the process-wide seed. Structures built on it
// (rhash.New, every citrus.Forest) agree with each other on where any
// key hashes without the caller threading a seed through.
func SharedSeed() maphash.Seed { return sharedSeed }
