package p2p

import (
	"ethmeasure/internal/hashset"
	"ethmeasure/internal/types"
)

// hashSet is a bounded set of hashes with FIFO eviction, mirroring the
// LRU caches Geth keeps per peer for known blocks, so a block is not
// re-sent to a peer that already has it.
//
// Storage is the window bitmap of internal/hashset: issued hashes are
// sequential, so a cache's members span a short id range and cost about
// one bit each, and nothing is allocated until the first Add. This type
// adds the insertion ring that turns the unbounded set into a
// fixed-capacity FIFO cache. The zero value is not ready to use; call
// setCapacity first.
type hashSet struct {
	capacity int
	ring     []types.Hash // members in insertion order
	pos      int          // next eviction slot once the ring is full
	set      hashset.U64
}

// setCapacity sets the capacity (at least 1) of an empty set.
func (s *hashSet) setCapacity(capacity int) { s.capacity = max(capacity, 1) }

// Add inserts h, evicting the oldest entry when full. It reports
// whether h was newly added; the membership test and the insert are
// one probe.
func (s *hashSet) Add(h types.Hash) bool {
	if !s.set.Add(uint64(h)) {
		return false
	}
	if len(s.ring) < s.capacity {
		s.ring = append(s.ring, h)
		return true
	}
	s.set.Remove(uint64(s.ring[s.pos]))
	s.ring[s.pos] = h
	if s.pos++; s.pos == s.capacity {
		s.pos = 0
	}
	return true
}

// Has reports whether h is in the set.
func (s *hashSet) Has(h types.Hash) bool { return s.set.Has(uint64(h)) }

// Len returns the number of entries currently held.
func (s *hashSet) Len() int { return len(s.ring) }
