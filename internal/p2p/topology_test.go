package p2p

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"ethmeasure/internal/types"
)

func TestBuildRandomTopologyDegrees(t *testing.T) {
	h := newHarness(t, 50, DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	if err := BuildRandomTopology(rng, h.nodes, 4); err != nil {
		t.Fatal(err)
	}
	totalDegree := 0
	for i, n := range h.nodes {
		if len(n.links) < 4 {
			t.Errorf("node %d degree %d < outDegree", i, len(n.links))
		}
		totalDegree += len(n.links)
	}
	mean := float64(totalDegree) / float64(len(h.nodes))
	if mean < 7 || mean > 9.5 {
		t.Errorf("mean degree %.1f, want ≈8", mean)
	}
}

func TestBuildRandomTopologyErrors(t *testing.T) {
	h := newHarness(t, 5, DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	if err := BuildRandomTopology(rng, h.nodes[:1], 1); err == nil {
		t.Error("single node must error")
	}
	if err := BuildRandomTopology(rng, h.nodes, 0); err == nil {
		t.Error("zero degree must error")
	}
	if err := BuildRandomTopology(rng, h.nodes, 5); err == nil {
		t.Error("degree >= n must error")
	}
}

func TestBuildRandomTopologyFloodReachesAll(t *testing.T) {
	h := newHarness(t, 40, DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	if err := BuildRandomTopology(rng, h.nodes, 3); err != nil {
		t.Fatal(err)
	}
	b := h.mineBlock(h.reg.Genesis(), 1)
	h.nodes[0].PublishBlock(b)
	h.run(time.Minute)
	for i, n := range h.nodes {
		if !n.View().Knows(b.Hash) {
			t.Errorf("node %d unreachable in random topology", i)
		}
	}
}

func TestBuildDiscoveryTopology(t *testing.T) {
	h := newHarness(t, 40, DefaultConfig())
	rng := rand.New(rand.NewSource(5))
	if err := BuildDiscoveryTopology(rng, h.nodes, 4); err != nil {
		t.Fatal(err)
	}
	for i, n := range h.nodes {
		if len(n.links) < 4 {
			t.Errorf("node %d degree %d < outDegree", i, len(n.links))
		}
	}
	// The discovery-built graph must be flood-connected.
	b := h.mineBlock(h.reg.Genesis(), 1)
	h.nodes[0].PublishBlock(b)
	h.run(time.Minute)
	for i, n := range h.nodes {
		if !n.View().Knows(b.Hash) {
			t.Errorf("node %d unreachable in discovery topology", i)
		}
	}
}

func TestBuildDiscoveryTopologyErrors(t *testing.T) {
	h := newHarness(t, 5, DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	if err := BuildDiscoveryTopology(rng, h.nodes[:1], 1); err == nil {
		t.Error("single node must error")
	}
	if err := BuildDiscoveryTopology(rng, h.nodes, 0); err == nil {
		t.Error("zero degree must error")
	}
}

func TestConnectToRandom(t *testing.T) {
	h := newHarness(t, 10, DefaultConfig())
	rng := rand.New(rand.NewSource(3))
	node := h.nodes[0]
	made := ConnectToRandom(rng, node, h.nodes, 5)
	if made != 5 {
		t.Errorf("made %d connections, want 5", made)
	}
	if len(node.links) != 5 {
		t.Errorf("peers = %d", len(node.links))
	}
	// Self and existing peers are skipped; asking for more than
	// available caps out.
	made = ConnectToRandom(rng, node, h.nodes, 100)
	if len(node.links) != 9 {
		t.Errorf("peers after exhaustive connect = %d, want 9", len(node.links))
	}
	if made != 4 {
		t.Errorf("made = %d, want 4", made)
	}
}

// TestConnectToRandomDrawsPerm: ConnectToRandom dials in the order of
// rng.Perm over the candidates and leaves the RNG where rng.Perm would,
// once its buffer has grown a call allocates nothing but the links, and
// PackLinks lets the buffer go.
func TestConnectToRandomDrawsPerm(t *testing.T) {
	h := newHarness(t, 60, DefaultConfig())
	node, peer := h.nodes[0], h.nodes[1]
	for seed := int64(1); seed <= 5; seed++ {
		node.DisconnectAll()
		Connect(node, peer) // an existing peer is skipped
		rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		ConnectToRandom(rng, node, h.nodes, 7)
		var want []types.NodeID
		for _, i := range ref.Perm(len(h.nodes)) {
			if c := h.nodes[i]; c != node && c != peer && len(want) < 7 {
				want = append(want, c.ID())
			}
		}
		for i, l := range node.links[1:] {
			if l.peer != want[i] {
				t.Fatalf("seed %d: link %d goes to %v, rng.Perm order gives %v", seed, i, l.peer, want[i])
			}
		}
		if len(node.links) != 1+len(want) || rng.Int63() != ref.Int63() {
			t.Fatalf("seed %d: %d links, or the RNG stream moved", seed, len(node.links))
		}
	}
	rng := rand.New(rand.NewSource(9))
	if allocs := testing.AllocsPerRun(10, func() { ConnectToRandom(rng, node, h.nodes, 0) }); allocs != 0 {
		t.Errorf("ConnectToRandom allocates %.1f times per call, want 0", allocs)
	}
	if PackLinks(h.net); node.tab.perm != nil {
		t.Error("PackLinks kept ConnectToRandom's buffer")
	}
}

// TestPackLinksSizesExactly: after PackLinks every node's link list
// and slot generations are exactly as long as their capacity, hold the
// same values as before, and come from one backing array each; links made
// or dropped afterwards touch only their own two nodes.
func TestPackLinksSizesExactly(t *testing.T) {
	h := newHarness(t, 40, DefaultConfig())
	if err := BuildRandomTopology(rand.New(rand.NewSource(2)), h.nodes, 3); err != nil {
		t.Fatal(err)
	}
	Disconnect(h.nodes[0], h.nodes[0].Peers()[0]) // a released slot
	links := make([][]link, len(h.nodes))
	gens := make([][]uint32, len(h.nodes))
	for i, n := range h.nodes {
		links[i], gens[i] = slices.Clone(n.links), slices.Clone(n.known.gens)
	}
	PackLinks(h.net)
	for i, n := range h.nodes {
		if !slices.Equal(n.links, links[i]) || !slices.Equal(n.known.gens, gens[i]) {
			t.Fatalf("node %d: links %v gens %v after packing, want %v %v", i, n.links, n.known.gens, links[i], gens[i])
		}
		if cap(n.links) != len(n.links) || cap(n.known.gens) != len(n.known.gens) {
			t.Fatalf("node %d: %d links in %d, %d generations in %d", i, len(n.links), cap(n.links), len(n.known.gens), cap(n.known.gens))
		}
	}
	if allocs := testing.AllocsPerRun(1, func() { PackLinks(h.net) }); allocs != 2 {
		t.Fatalf("packing allocated %.0f times, want one array of links and one of generations", allocs)
	}

	// Churn after packing: a new link, a dropped one and a departure.
	a, b := h.nodes[1], h.nodes[2]
	if _, ok := a.linkTo(b); ok {
		Disconnect(a, b)
	}
	Connect(a, b)
	Disconnect(h.nodes[3], h.nodes[3].Peers()[0])
	h.nodes[4].DisconnectAll()
	for i, n := range h.nodes {
		for _, l := range n.links {
			if p := h.nodes[l.peer]; !slices.Contains(p.links, link{peer: n.id, slot: l.peerSlot, peerSlot: l.slot}) {
				t.Fatalf("node %d links to %d on slots %d/%d, but %d has no matching end", i, l.peer, l.slot, l.peerSlot, l.peer)
			}
			if n.known.resolve(n.known.handle(l.slot)) != l.slot {
				t.Fatalf("node %d: slot %d of a live link does not resolve", i, l.slot)
			}
		}
	}
}
