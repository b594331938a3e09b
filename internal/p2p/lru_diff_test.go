package p2p

import (
	"math/rand"
	"testing"

	"ethmeasure/internal/types"
)

// refFIFOSet is a map+ring FIFO set, the behavioural reference for the
// bitmap-backed hashSet.
type refFIFOSet struct {
	capacity int
	m        map[types.Hash]struct{}
	ring     []types.Hash
	pos      int
}

func newRefFIFOSet(capacity int) *refFIFOSet {
	if capacity <= 0 {
		capacity = 1
	}
	return &refFIFOSet{capacity: capacity, m: make(map[types.Hash]struct{})}
}

func (s *refFIFOSet) Add(h types.Hash) bool {
	if _, ok := s.m[h]; ok {
		return false
	}
	if len(s.ring) < s.capacity {
		s.ring = append(s.ring, h)
	} else {
		delete(s.m, s.ring[s.pos])
		s.ring[s.pos] = h
		s.pos = (s.pos + 1) % s.capacity
	}
	s.m[h] = struct{}{}
	return true
}

func (s *refFIFOSet) Has(h types.Hash) bool { _, ok := s.m[h]; return ok }
func (s *refFIFOSet) Len() int              { return len(s.m) }

// TestHashSetMatchesReference drives the hashset-backed cache and the
// original map-based implementation through the same random operation
// streams — every Add return, Has answer and Len must agree, across
// capacities, duplicate rates and the reserved zero hash.
func TestHashSetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		capacity := 1 + rng.Intn(70)
		keyspace := 1 + rng.Intn(120) // small keyspace => heavy duplicates + evict/readd
		s := newHashSet(capacity)
		ref := newRefFIFOSet(capacity)
		for op := 0; op < 600; op++ {
			h := types.Hash(rng.Intn(keyspace)) // includes zero
			switch rng.Intn(3) {
			case 0:
				if got, want := s.Add(h), ref.Add(h); got != want {
					t.Fatalf("trial %d op %d: Add(%v) = %v, reference %v", trial, op, h, got, want)
				}
			default:
				if got, want := s.Has(h), ref.Has(h); got != want {
					t.Fatalf("trial %d op %d: Has(%v) = %v, reference %v", trial, op, h, got, want)
				}
			}
			if s.Len() != ref.Len() {
				t.Fatalf("trial %d op %d: Len %d, reference %d", trial, op, s.Len(), ref.Len())
			}
		}
		// Full sweep: membership must agree for the whole keyspace.
		for k := 0; k < keyspace; k++ {
			h := types.Hash(k)
			if s.Has(h) != ref.Has(h) {
				t.Fatalf("trial %d sweep: Has(%v) = %v, reference %v", trial, h, s.Has(h), ref.Has(h))
			}
		}
	}
}

// TestHashSetSequentialHashes mirrors production traffic: issuer hashes
// are sequential counters, so the bitmap window slides as they arrive.
func TestHashSetSequentialHashes(t *testing.T) {
	const capacity = 256
	s := newHashSet(capacity)
	base := types.Hash(uint64(2)<<48 + 1) // txgen issuer salt
	for i := 0; i < 10_000; i++ {
		h := base + types.Hash(i)
		if !s.Add(h) {
			t.Fatalf("fresh hash %v reported duplicate", h)
		}
		if s.Len() > capacity {
			t.Fatalf("len %d exceeds capacity", s.Len())
		}
	}
	// Exactly the newest `capacity` hashes survive.
	for i := 10_000 - capacity; i < 10_000; i++ {
		if !s.Has(base + types.Hash(i)) {
			t.Fatalf("recent hash %d evicted", i)
		}
	}
	if s.Has(base + types.Hash(10_000-capacity-1)) {
		t.Fatal("stale hash survived eviction")
	}
}
