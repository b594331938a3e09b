package discovery

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ethmeasure/internal/types"
)

func TestDistanceMetric(t *testing.T) {
	if Distance(5, 5) != 0 {
		t.Error("self distance must be zero")
	}
	if Distance(1, 2) != Distance(2, 1) {
		t.Error("distance must be symmetric")
	}
	if Distance(0b100, 0b001) != 0b101 {
		t.Error("XOR metric wrong")
	}
}

func TestLogDistance(t *testing.T) {
	tests := []struct {
		a, b ID
		want int
	}{
		{0, 0, -1},
		{0, 1, 0},
		{0, 2, 1},
		{0, 1 << 63, 63},
		{0b1000, 0b1001, 0},
	}
	for _, tt := range tests {
		if got := LogDistance(tt.a, tt.b); got != tt.want {
			t.Errorf("LogDistance(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestTableAddAndBuckets(t *testing.T) {
	table := NewTable(0)
	if table.Add(Record{ID: 0, Node: 1}) {
		t.Error("self must be rejected")
	}
	if !table.Add(Record{ID: 1, Node: 1}) {
		t.Error("fresh record rejected")
	}
	if table.Add(Record{ID: 1, Node: 1}) {
		t.Error("duplicate accepted")
	}
	if table.Len() != 1 {
		t.Errorf("len = %d", table.Len())
	}
	// Fill bucket 63 (IDs with top bit set) beyond capacity: entries
	// are replaced round-robin, so the bucket stays at capacity while
	// newcomers are always stored.
	for i := 0; i < BucketSize*2; i++ {
		if !table.Add(Record{ID: ID(1<<63 | uint64(i+1)), Node: types.NodeID(i)}) {
			t.Fatalf("record %d rejected despite replacement policy", i)
		}
	}
	if table.Len() != BucketSize+1 { // +1 for the ID 1 record above
		t.Errorf("table len = %d, want bucket capacity %d + 1", table.Len(), BucketSize+1)
	}
	// The most recent record must be present.
	found := false
	for _, r := range table.Closest(1<<63, BucketSize) {
		if r.ID == ID(1<<63|uint64(BucketSize*2)) {
			found = true
		}
	}
	if !found {
		t.Error("latest record missing after replacement")
	}
}

func TestTableClosestOrdering(t *testing.T) {
	table := NewTable(0)
	for _, id := range []ID{0b1, 0b10, 0b100, 0b1000} {
		table.Add(Record{ID: id, Node: types.NodeID(id)})
	}
	got := table.Closest(0b11, 2)
	if len(got) != 2 {
		t.Fatalf("closest = %d records", len(got))
	}
	// Distances to 0b11: 0b1→2, 0b10→1, 0b100→7, 0b1000→11.
	if got[0].ID != 0b10 || got[1].ID != 0b1 {
		t.Errorf("closest order = %v", got)
	}
}

func TestNetworkJoinUniqueIDs(t *testing.T) {
	n := NewNetwork(rand.New(rand.NewSource(1)))
	seen := make(map[ID]bool)
	for i := 0; i < 500; i++ {
		id, err := n.Join(types.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		if seen[id] {
			t.Fatal("duplicate discovery ID")
		}
		seen[id] = true
	}
	if _, err := n.Join(types.NodeID(3)); err == nil {
		t.Error("double join must error")
	}
	if len(n.records) != 500 {
		t.Errorf("size = %d", len(n.records))
	}
}

func TestLookupConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := NewNetwork(rng)
	ids := make([]ID, 0, 300)
	for i := 0; i < 300; i++ {
		id, err := n.Join(types.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Lookup of an existing ID should find it (or something very close).
	target := ids[250]
	got := n.Lookup(types.NodeID(0), target, 1)
	if len(got) == 0 {
		t.Fatal("lookup returned nothing")
	}
	if got[0].ID != target {
		// Must at least be among the globally closest few.
		best := Distance(got[0].ID, target)
		closer := 0
		for _, id := range ids {
			if Distance(id, target) < best {
				closer++
			}
		}
		if closer > 3 {
			t.Errorf("lookup result %d IDs away from optimum", closer)
		}
	}
}

func TestDiscoverPeersCount(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := NewNetwork(rng)
	for i := 0; i < 200; i++ {
		if _, err := n.Join(types.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	peers := n.DiscoverPeers(types.NodeID(0), 12)
	if len(peers) != 12 {
		t.Fatalf("discovered %d peers, want 12", len(peers))
	}
	seen := make(map[types.NodeID]bool)
	for _, p := range peers {
		if p == types.NodeID(0) {
			t.Error("discovered self")
		}
		if seen[p] {
			t.Error("duplicate peer")
		}
		seen[p] = true
	}
}

// TestDiscoveryIsGeographyBlind is the paper's §III-B1 premise: peer
// selection is uniform over the ID space. We tag the first half of
// nodes as "region A" and verify discovered peer sets mix regions in
// proportion.
func TestDiscoveryIsGeographyBlind(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := NewNetwork(rng)
	const total = 400
	for i := 0; i < total; i++ {
		if _, err := n.Join(types.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	inA := 0
	count := 0
	for from := 0; from < 40; from++ {
		for _, p := range n.DiscoverPeers(types.NodeID(from), 10) {
			count++
			if int(p) < total/2 {
				inA++
			}
		}
	}
	share := float64(inA) / float64(count)
	// A mild join-order bias is inherent to Kademlia tables (real
	// discv4 has it too); the property under test is that peer sets
	// MIX regions rather than partition by them.
	if math.Abs(share-0.5) > 0.12 {
		t.Errorf("region-A share of discovered peers = %.3f, want ≈0.5 (geography-blind)", share)
	}
}

// Property: Closest always returns records sorted by XOR distance.
func TestClosestSortedProperty(t *testing.T) {
	f := func(selfRaw uint64, idsRaw []uint64, targetRaw uint64) bool {
		table := NewTable(ID(selfRaw))
		for i, raw := range idsRaw {
			table.Add(Record{ID: ID(raw), Node: types.NodeID(i)})
		}
		target := ID(targetRaw)
		got := table.Closest(target, 8)
		for i := 1; i < len(got); i++ {
			if Distance(got[i-1].ID, target) > Distance(got[i].ID, target) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
