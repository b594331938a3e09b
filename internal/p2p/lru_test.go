package p2p

import (
	"testing"
	"testing/quick"

	"ethmeasure/internal/hashset"
	"ethmeasure/internal/types"
)

// hashSet is a bounded set of hashes with FIFO eviction: one per link
// endpoint, it is the per-link model of Geth's known-block caches that
// the node's knownBlocks table must answer like (see
// TestKnownTableMatchesPerLinkFIFO). Storage is the window bitmap of
// internal/hashset plus an insertion ring that turns the unbounded set
// into a fixed-capacity FIFO. The zero value is not ready to use; call
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
// whether h was newly added.
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

func newHashSet(capacity int) *hashSet {
	s := &hashSet{}
	s.setCapacity(capacity)
	return s
}

func TestHashSetAddHas(t *testing.T) {
	s := newHashSet(4)
	if s.Has(1) {
		t.Error("empty set reported membership")
	}
	if !s.Add(1) {
		t.Error("first add returned false")
	}
	if s.Add(1) {
		t.Error("duplicate add returned true")
	}
	if !s.Has(1) || s.Len() != 1 {
		t.Error("membership lost")
	}
}

func TestHashSetEvictsOldestFirst(t *testing.T) {
	s := newHashSet(3)
	for h := types.Hash(1); h <= 3; h++ {
		s.Add(h)
	}
	s.Add(4) // evicts 1
	if s.Has(1) {
		t.Error("oldest entry survived eviction")
	}
	for h := types.Hash(2); h <= 4; h++ {
		if !s.Has(h) {
			t.Errorf("entry %v evicted prematurely", h)
		}
	}
	if s.Len() != 3 {
		t.Errorf("len = %d", s.Len())
	}
	s.Add(5) // evicts 2
	if s.Has(2) || !s.Has(5) {
		t.Error("FIFO eviction order violated")
	}
}

func TestHashSetCapacityOne(t *testing.T) {
	s := newHashSet(1)
	s.Add(1)
	s.Add(2)
	if s.Has(1) || !s.Has(2) {
		t.Error("capacity-1 set misbehaved")
	}
}

func TestHashSetZeroCapacityClamped(t *testing.T) {
	s := newHashSet(0)
	if !s.Add(1) {
		t.Error("clamped set should still accept entries")
	}
	if !s.Has(1) {
		t.Error("entry lost")
	}
}

// Property: the set never exceeds capacity and the most recent entry is
// always present.
func TestHashSetBoundedProperty(t *testing.T) {
	f := func(capacity uint8, hashes []uint16) bool {
		capValue := int(capacity%32) + 1
		s := newHashSet(capValue)
		for _, raw := range hashes {
			h := types.Hash(raw)
			s.Add(h)
			if s.Len() > capValue {
				return false
			}
			if !s.Has(h) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMsgKindString(t *testing.T) {
	tests := []struct {
		kind MsgKind
		want string
	}{
		{MsgFullBlock, "block"},
		{MsgAnnounce, "announce"},
		{MsgFetchedBlock, "fetched"},
		{MsgTx, "tx"},
		{MsgKind(0), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("MsgKind(%d).String() = %q, want %q", tt.kind, got, tt.want)
		}
	}
}
