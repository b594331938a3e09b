package p2p

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ethmeasure/internal/chain"
	"ethmeasure/internal/geo"
	"ethmeasure/internal/sim"
	"ethmeasure/internal/simnet"
	"ethmeasure/internal/types"
)

// gossipCase is one differential block-gossip run: a random graph of
// mixed-region nodes, blocks published at random nodes and times on
// the publisher's head, and mid-run topology changes.
type gossipCase struct {
	seed       int64
	nodes      int
	outDegree  int
	zeroJitter bool // uniform 10 ms links and equal bandwidth: equal-time ties everywhere
	capacity   int  // KnownBlocksPerPeer; small values make blocks share rows
	mode       int  // 0: push and announce; 1: announce only; 2: push only
	blocks     int
	spacing    time.Duration // mean gap between publications
	churn      int           // topology changes
	horizon    time.Duration // 0: run until the queue drains
}

var gossipCases = []gossipCase{
	{seed: 1, nodes: 24, outDegree: 4, capacity: 256, blocks: 8, spacing: 2 * time.Second, churn: 6},
	{seed: 2, nodes: 36, outDegree: 6, capacity: 256, blocks: 14, spacing: 300 * time.Millisecond, churn: 10},
	{seed: 3, nodes: 20, outDegree: 5, zeroJitter: true, capacity: 256, blocks: 10, spacing: 100 * time.Millisecond, churn: 8},
	// Two- and three-row tables: concurrent blocks evict each other.
	{seed: 4, nodes: 30, outDegree: 5, capacity: 2, blocks: 16, spacing: 150 * time.Millisecond, churn: 10},
	{seed: 5, nodes: 28, outDegree: 7, zeroJitter: true, capacity: 3, blocks: 12, spacing: 50 * time.Millisecond, churn: 12},
	{seed: 6, nodes: 24, outDegree: 4, capacity: 256, mode: 1, blocks: 8, spacing: time.Second, churn: 6},
	{seed: 7, nodes: 24, outDegree: 4, capacity: 256, mode: 2, blocks: 8, spacing: time.Second, churn: 6},
	// Cut mid-gossip, with deliveries still pending.
	{seed: 8, nodes: 40, outDegree: 8, capacity: 256, blocks: 12, spacing: 200 * time.Millisecond, churn: 8, horizon: 2 * time.Second},
	// Dense churn during gossip: pairs re-dialled with blocks in flight
	// between them, which must mark nothing on arrival.
	{seed: 9, nodes: 30, outDegree: 6, capacity: 256, blocks: 12, spacing: 150 * time.Millisecond, churn: 60},
	{seed: 10, nodes: 20, outDegree: 5, capacity: 256, blocks: 8, spacing: 100 * time.Millisecond, churn: 60},
}

// gossipEntry is one observed block message at a node.
type gossipEntry struct {
	at   sim.Time
	hash types.Hash
	from types.NodeID
	kind MsgKind
}

// gossipRecorder records every block message a node observes.
type gossipRecorder struct {
	seen []gossipEntry
}

func (r *gossipRecorder) ObserveBlock(at sim.Time, b *types.Block, from types.NodeID, kind MsgKind) {
	r.seen = append(r.seen, gossipEntry{at, b.Hash, from, kind})
}

func (r *gossipRecorder) ObserveAnnounce(at sim.Time, h types.Hash, _ uint64, from types.NodeID) {
	r.seen = append(r.seen, gossipEntry{at, h, from, MsgAnnounce})
}

func (r *gossipRecorder) ObserveTx(sim.Time, *types.Transaction, types.NodeID) {}

// gossipRun is one instance of a gossipCase. Two instances of the same
// case are identical down to edge order, RNG streams and the plan of
// publications and topology changes, which is queued before the run
// and so takes the lowest seqs in both.
type gossipRun struct {
	engine    *sim.Engine
	net       *simnet.Network
	cfg       Config
	reg       *chain.Registry
	issuer    *types.HashIssuer
	nodes     []*Node
	recorders []*gossipRecorder
	end       sim.Time
}

// newGossipRun builds c's network, observes the nodes observe picks
// with recording observers, queues the plan and runs it.
func newGossipRun(tb testing.TB, c gossipCase, observe func(i int) bool) *gossipRun {
	tb.Helper()
	g := &gossipRun{engine: sim.NewEngine(c.seed), cfg: DefaultConfig(), issuer: types.NewHashIssuer(1)}
	g.cfg.KnownBlocksPerPeer = c.capacity
	g.cfg.SqrtPush = c.mode != 1
	g.cfg.AnnounceAfterImport = c.mode != 2
	lat := geo.DefaultLatencyModel()
	if c.zeroJitter {
		lat = geo.UniformLatencyModel(10*time.Millisecond, 0)
	}
	g.net = simnet.New(g.engine, lat)
	g.reg = chain.NewRegistry(0, g.issuer)
	rng := rand.New(rand.NewSource(c.seed))
	regions := geo.AllRegions()
	for i := 0; i < c.nodes; i++ {
		bw := 1e8
		if !c.zeroJitter {
			bw = 2e5 + rng.Float64()*1e8
		}
		ep, err := g.net.AddNode(regions[rng.Intn(len(regions))], bw)
		if err != nil {
			tb.Fatal(err)
		}
		n := NewNode(&g.cfg, g.net, ep, g.reg)
		n.SetProcSpeed(0.5 + rng.Float64())
		var rec *gossipRecorder
		if observe(i) {
			rec = &gossipRecorder{}
			n.Observer = rec
		}
		g.nodes = append(g.nodes, n)
		g.recorders = append(g.recorders, rec)
	}
	if err := BuildRandomTopology(rng, g.nodes, c.outDegree); err != nil {
		tb.Fatal(err)
	}

	at := time.Duration(0)
	for i := 0; i < c.blocks; i++ {
		at += time.Duration(rng.Int63n(int64(2*c.spacing) + 1))
		n, txs := g.nodes[rng.Intn(len(g.nodes))], rng.Intn(3000)
		g.engine.Schedule(at, func() { g.publish(tb, n, txs) })
	}
	span := at + 3*time.Second
	for i := 0; i < c.churn; i++ {
		when := time.Duration(rng.Int63n(int64(span)))
		a, b, k, kind := g.nodes[rng.Intn(len(g.nodes))], g.nodes[rng.Intn(len(g.nodes))], rng.Intn(64), rng.Intn(3)
		redial := []*Node{g.nodes[rng.Intn(len(g.nodes))], g.nodes[rng.Intn(len(g.nodes))]}
		g.engine.Schedule(when, func() {
			switch kind {
			case 0:
				// Drop one link; at odd k dial the pair afresh at once,
				// so deliveries in flight on the old link arrive over a
				// torn-down link while the pair is peered again.
				if peers := a.Peers(); len(peers) > 0 {
					p := peers[k%len(peers)]
					Disconnect(a, p)
					if k%2 == 1 {
						Connect(a, p)
					}
				}
			case 1:
				Connect(a, b)
			default:
				a.DisconnectAll()
				for _, p := range redial[:k%3] {
					Connect(a, p)
				}
			}
		})
	}

	horizon := c.horizon
	if horizon == 0 {
		horizon = time.Hour
	}
	end, err := g.engine.Run(horizon)
	if err != nil {
		tb.Fatal(err)
	}
	g.end = end
	return g
}

// publish mines a block with txs transactions on n's head and
// publishes it at n.
func (g *gossipRun) publish(tb testing.TB, n *Node, txs int) {
	parent := n.View().Head()
	b := &types.Block{
		Hash:       g.issuer.Next(),
		Number:     parent.Number + 1,
		ParentHash: parent.Hash,
		Miner:      types.PoolID(n.ID()),
		TxHashes:   make([]types.Hash, txs),
		Size:       types.BlockSize(txs),
	}
	if err := g.reg.Add(b); err != nil {
		tb.Fatal(err)
	}
	n.PublishBlock(b)
}

// runGossipDiff runs c twice: once observing a random subset of the
// nodes, where deliveries to the rest may be settled at send time, and
// once observing every node, where none is. It fails on any difference
// in the subset's observed messages, the nodes' heads and RNG stream
// positions, the wire-message count or the end time, and returns the
// two runs' event counts.
func runGossipDiff(tb testing.TB, c gossipCase) (subsetEvents, allEvents uint64) {
	tb.Helper()
	subset := rand.New(rand.NewSource(c.seed ^ 0x5eed))
	picked := make([]bool, c.nodes)
	for i := range picked {
		picked[i] = subset.Intn(4) == 0
	}
	a := newGossipRun(tb, c, func(i int) bool { return picked[i] })
	b := newGossipRun(tb, c, func(int) bool { return true })

	for i := range a.nodes {
		if picked[i] && !slices.Equal(a.recorders[i].seen, b.recorders[i].seen) {
			tb.Fatalf("node %d observed\n%v\nwith every node observed\n%v", i, a.recorders[i].seen, b.recorders[i].seen)
		}
		if ha, hb := a.nodes[i].View().Head().Hash, b.nodes[i].View().Head().Hash; ha != hb {
			tb.Fatalf("node %d: head %v, with every node observed %v", i, ha, hb)
		}
		if ra, rb := a.nodes[i].rng.Int63(), b.nodes[i].rng.Int63(); ra != rb {
			tb.Fatalf("node %d: next protocol draw %d, with every node observed %d", i, ra, rb)
		}
	}
	if a.net.Sent() != b.net.Sent() {
		tb.Fatalf("sent %d messages, with every node observed %d", a.net.Sent(), b.net.Sent())
	}
	if a.end != b.end {
		tb.Fatalf("run ended at %v, with every node observed %v", a.end, b.end)
	}
	return a.engine.EventsRun(), b.engine.EventsRun()
}

// TestBlockDeliveryElisionMatchesObserved: a node with an Observer
// never settles a block delivery at send time, so a run that observes
// every node is the un-elided reference. A run that observes only a
// random subset must give that subset the same message stream (time,
// sender, kind), and every node the same head, RNG position and wire
// count, across forks, shared known-table rows, announce-only and
// push-only gossip, equal-time ties, link churn and a horizon cut —
// with fewer engine events.
func TestBlockDeliveryElisionMatchesObserved(t *testing.T) {
	for _, c := range gossipCases {
		t.Run(fmt.Sprintf("seed%d", c.seed), func(t *testing.T) {
			subsetEvents, allEvents := runGossipDiff(t, c)
			if subsetEvents >= allEvents {
				t.Errorf("ran %d events, with every node observed %d: nothing settled", subsetEvents, allEvents)
			}
		})
	}
}

// FuzzBlockGossip drives the differential block-gossip run over random
// graphs, table capacities, gossip modes, publication spacings, churn
// and horizons.
func FuzzBlockGossip(f *testing.F) {
	for _, c := range gossipCases {
		f.Add(c.seed, uint8(c.nodes-8), uint8(c.outDegree-1), c.zeroJitter, uint16(c.capacity), uint8(c.mode),
			uint8(c.blocks-1), uint16(c.spacing/time.Millisecond), uint8(c.churn), uint16(c.horizon/time.Millisecond))
	}
	f.Fuzz(func(t *testing.T, seed int64, extraNodes, outDegree uint8, zeroJitter bool, capacity uint16, mode,
		blocks uint8, spacingMs uint16, churn uint8, horizonMs uint16) {
		nodes := 8 + int(extraNodes%40)
		runGossipDiff(t, gossipCase{
			seed:       seed,
			nodes:      nodes,
			outDegree:  1 + int(outDegree)%(nodes/4),
			zeroJitter: zeroJitter,
			capacity:   int(capacity % 300),
			mode:       int(mode % 3),
			blocks:     1 + int(blocks%20),
			spacing:    time.Duration(spacingMs%3000) * time.Millisecond,
			churn:      int(churn % 64),
			horizon:    time.Duration(horizonMs) * time.Millisecond,
		})
	})
}

// TestSettleDecidesBySchedule pins knownBlocks.settle's decision for
// each place a delivery can land relative to the receiver's push (10 s)
// and announce (11 s), including a push due at the send time itself,
// which may not have run yet.
func TestSettleDecidesBySchedule(t *testing.T) {
	const h = types.Hash(42)
	s := func(d float64) sim.Time { return sim.Time(d * float64(time.Second)) }
	for _, c := range []struct {
		name          string
		scheduled     bool
		slot          int32
		now, at       sim.Time
		settled, mark bool
	}{
		{"unknown schedule", false, 1, s(5), s(6), false, false},
		{"before the push", true, 1, s(5), s(9.9), true, true},
		{"at the push", true, 1, s(5), s(10), false, false},
		{"between push and announce", true, 1, s(5), s(10.5), false, false},
		{"at the announce", true, 1, s(5), s(11), true, false},
		{"after the announce", true, 1, s(10.5), s(12), true, false},
		{"sent when the push is due", true, 1, s(10), s(10.5), false, false},
		{"sent after the push", true, 1, s(10.1), s(10.5), true, true},
		{"torn-down link", true, -1, s(5), s(9), true, false},
	} {
		k := knownBlocks{capacity: 4, gens: make([]uint32, 2)}
		k.mark(h, 0)
		if c.scheduled {
			k.schedule(h, s(10), s(11))
		}
		if got := k.settle(h, c.slot, c.now, c.at); got != c.settled {
			t.Errorf("%s: settled %v, want %v", c.name, got, c.settled)
		}
		if got := k.has(k.find(h), 1); got != c.mark {
			t.Errorf("%s: slot marked %v, want %v", c.name, got, c.mark)
		}
	}
	var k knownBlocks
	k.capacity = 4
	if k.settle(h, 0, s(5), s(6)) {
		t.Error("settled a delivery of a block the table does not track")
	}
}
