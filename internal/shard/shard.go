// Package shard implements the hash partitioning that splits a belief
// database across N independent stores. A tuple belongs to exactly one
// shard, decided by a seeded 64-bit FNV-1a hash of its relation name and
// row key (the first column — the same key the store's indexes hash).
// Belief annotations attach to individual tuples, so every statement about
// a tuple — any believer, any depth, positive or negative — lives on the
// tuple's shard and belief propagation never crosses shard boundaries;
// that locality is what makes scatter-gather query merging sound (see
// DESIGN.md, "Sharding").
//
// Unlike the in-memory hash structures (whose seed is randomized per
// process and must never be persisted), the partition seed is an explicit
// cluster-wide constant: every shard server is started with the same
// {count, seed} pair, announces it in the wire handshake, and the router
// verifies all shards agree before serving traffic.
package shard

import (
	"fmt"

	"beliefdb/internal/val"
)

// Map is a cluster partitioning: how many shards there are and the seed
// their owners are hashed with. The zero Map (Count 0) means "unsharded".
type Map struct {
	Count int    // number of shards; 0 = not sharded
	Seed  uint64 // cluster-wide partition seed
}

// Enabled reports whether the map describes a sharded cluster.
func (m Map) Enabled() bool { return m.Count > 0 }

// Validate checks that a shard server's identity is coherent.
func Validate(id, count int) error {
	if count < 1 {
		return fmt.Errorf("shard: count %d < 1", count)
	}
	if id < 0 || id >= count {
		return fmt.Errorf("shard: id %d outside [0,%d)", id, count)
	}
	return nil
}

// Identity is what one server announces in the wire handshake: which shard
// of how many it is, under which partition seed. The zero Identity is an
// unsharded server.
type Identity struct {
	ID    int
	Count int
	Seed  uint64
}

// Check compares the identity the server at addr announced with the one
// its peer is configured to find there — a router its shard's primary and
// replicas, a replica the primary it follows. Serving one shard's rows
// under another's name corrupts silently, so every mismatch is refused.
func (want Identity) Check(addr string, got Identity) error {
	switch {
	case got.Count == 0 && want.Count > 0:
		return fmt.Errorf("server at %s announces no shard identity; start it with -shard-id/-shard-count/-shard-seed", addr)
	case got.Count != want.Count:
		return fmt.Errorf("server at %s belongs to a %d-shard cluster, configured for %d shards", addr, got.Count, want.Count)
	case got.ID != want.ID:
		return fmt.Errorf("server at %s is shard %d, configured as shard %d", addr, got.ID, want.ID)
	case got.Seed != want.Seed:
		return fmt.Errorf("server at %s uses partition seed %#x, configured with %#x", addr, got.Seed, want.Seed)
	}
	return nil
}

// Owner returns the shard owning the tuple (rel, key): the seeded FNV-1a
// chain over the relation name and the row key, reduced mod Count. The
// relation name is folded in so two relations' key spaces do not shadow
// each other; the key hashes through val.Hash64's type-tagged encoding, so
// an integer and a float holding the same number route identically (keys
// should otherwise be written with the column's declared type — see the
// partitioning notes in DESIGN.md).
func (m Map) Owner(rel string, key val.Value) int {
	if m.Count <= 1 {
		return 0
	}
	h := val.Hash64(m.Seed, val.Str(rel))
	h = val.Hash64(h, key)
	return int(h % uint64(m.Count))
}
