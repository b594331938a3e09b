package p2p

import (
	"math/rand"
	"testing"
	"time"

	"ethmeasure/internal/chain"
	"ethmeasure/internal/geo"
	"ethmeasure/internal/sim"
	"ethmeasure/internal/simnet"
	"ethmeasure/internal/types"
)

// floodCase is one differential transaction flood: a random graph of
// mixed-region nodes, txs submitted spacing apart from a few origins,
// and one link cut plus one node departure at cutAt (mid-flood when
// cutAt falls inside a flood).
type floodCase struct {
	seed       int64
	nodes      int
	outDegree  int
	zeroJitter bool // uniform 10 ms links and equal bandwidth: equal-time ties everywhere
	txs        int
	spacing    time.Duration
	cutAt      time.Duration
}

var floodCases = []floodCase{
	{seed: 1, nodes: 200, outDegree: 6, txs: 8, spacing: 150 * time.Millisecond, cutAt: 120 * time.Millisecond},
	{seed: 2, nodes: 240, outDegree: 8, txs: 12, spacing: 0, cutAt: 60 * time.Millisecond},
	{seed: 3, nodes: 220, outDegree: 3, txs: 6, spacing: 40 * time.Millisecond, cutAt: 200 * time.Millisecond},
	{seed: 4, nodes: 200, outDegree: 6, zeroJitter: true, txs: 8, spacing: 20 * time.Millisecond, cutAt: 30 * time.Millisecond},
	{seed: 5, nodes: 256, outDegree: 10, zeroJitter: true, txs: 10, spacing: 0, cutAt: 20 * time.Millisecond},
}

// sighting is a node's first sighting of a transaction: when, and from
// which peer (-1 for the node's own submission).
type sighting struct {
	at   sim.Time
	from types.NodeID
}

// floodNet is one instance of a floodCase. Two instances of the same
// case are identical down to edge order and RNG streams, so one can run
// the production relay and the other the reference relay.
type floodNet struct {
	engine  *sim.Engine
	net     *simnet.Network
	cfg     Config
	nodes   []*Node
	origins []*Node
	txs     []*types.Transaction
	cut     [2]*Node // link severed at cutAt
	leaver  *Node    // node that drops every peer at cutAt
}

func newFloodNet(tb testing.TB, c floodCase) *floodNet {
	tb.Helper()
	f := &floodNet{engine: sim.NewEngine(c.seed), cfg: DefaultConfig()}
	lat := geo.DefaultLatencyModel()
	if c.zeroJitter {
		lat = geo.UniformLatencyModel(10*time.Millisecond, 0)
	}
	f.net = simnet.New(f.engine, lat)
	reg := chain.NewRegistry(0, types.NewHashIssuer(1))
	rng := rand.New(rand.NewSource(c.seed))
	regions := geo.AllRegions()
	for i := 0; i < c.nodes; i++ {
		bw := 1e8
		if !c.zeroJitter {
			bw = 1e6 + rng.Float64()*1e8
		}
		ep, err := f.net.AddNode(regions[rng.Intn(len(regions))], bw)
		if err != nil {
			tb.Fatal(err)
		}
		f.nodes = append(f.nodes, NewNode(&f.cfg, f.net, ep, reg))
	}
	if err := BuildRandomTopology(rng, f.nodes, c.outDegree); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f.origins = append(f.origins, f.nodes[rng.Intn(len(f.nodes))])
	}
	issuer := types.NewHashIssuer(2)
	for i := 0; i < c.txs; i++ {
		f.txs = append(f.txs, &types.Transaction{Hash: issuer.Next(), Size: types.TxSize})
	}
	a := f.nodes[rng.Intn(len(f.nodes))]
	f.cut = [2]*Node{a, a.edges[rng.Intn(len(a.edges))].Other(a)}
	f.leaver = f.nodes[rng.Intn(len(f.nodes))]
	return f
}

// schedule queues the submissions and the mid-flood disconnects before
// the run, so they take the lowest sequence numbers in both instances.
func (f *floodNet) schedule(c floodCase, submit func(origin *Node, tx *types.Transaction)) {
	for i, tx := range f.txs {
		origin, tx := f.origins[i%len(f.origins)], tx
		f.engine.Schedule(time.Duration(i)*c.spacing, func() { submit(origin, tx) })
	}
	f.engine.Schedule(c.cutAt, func() {
		Disconnect(f.cut[0], f.cut[1])
		f.leaver.DisconnectAll()
	})
}

func (f *floodNet) run(tb testing.TB) {
	tb.Helper()
	if _, err := f.engine.Run(time.Hour); err != nil {
		tb.Fatal(err)
	}
}

// refRelay is the un-elided reference flood: every first sighting
// relays to every edge but `from`, and every delivery is scheduled and
// run.
type refRelay struct {
	first []map[types.Hash]sighting
	sinks []refSink
}

type refSink struct {
	r *refRelay
	n *Node
}

func (s *refSink) DeliverEnvelope(env simnet.Envelope) {
	s.r.sight(s.n, env.Data.(*types.Transaction), env.Aux.(*Edge))
}

func newRefRelay(f *floodNet) *refRelay {
	r := &refRelay{first: make([]map[types.Hash]sighting, len(f.nodes)), sinks: make([]refSink, len(f.nodes))}
	for i, n := range f.nodes {
		r.first[i] = make(map[types.Hash]sighting)
		r.sinks[i] = refSink{r: r, n: n}
	}
	return r
}

func (r *refRelay) sight(n *Node, tx *types.Transaction, from *Edge) {
	first := r.first[n.ID()]
	if _, ok := first[tx.Hash]; ok {
		return
	}
	s := sighting{at: n.sched.Now(), from: -1}
	if from != nil {
		s.from = from.Other(n).ID()
	}
	first[tx.Hash] = s
	for _, e := range n.edges {
		if e == from {
			continue
		}
		peer := e.Other(n)
		d := n.net.Transmit(n.netNode, peer.netNode, tx.Size)
		n.net.ScheduleDelivery(n.netNode, peer.netNode, d, &r.sinks[peer.ID()], simnet.Envelope{Kind: evTx, Data: tx, Aux: e})
	}
}

// firstObserver records the first observed delivery of each tx.
type firstObserver struct {
	first map[types.Hash]sighting
}

func (o *firstObserver) ObserveBlock(sim.Time, *types.Block, types.NodeID, MsgKind) {}
func (o *firstObserver) ObserveAnnounce(sim.Time, types.Hash, uint64, types.NodeID) {}
func (o *firstObserver) ObserveTx(at sim.Time, tx *types.Transaction, from types.NodeID) {
	if _, ok := o.first[tx.Hash]; !ok {
		o.first[tx.Hash] = sighting{at: at, from: from}
	}
}

// runFloodDiff runs c through the production relay and the reference
// relay and fails on any difference in first sightings, wire-message
// counts or RNG stream positions. It returns the event counts.
func runFloodDiff(t *testing.T, c floodCase) (prodEvents, refEvents uint64) {
	t.Helper()
	prod := newFloodNet(t, c)
	ref := newFloodNet(t, c)

	// Production: origins stay unobserved (SubmitTx requires it) and
	// report their first sightings through TxSink; every other node
	// also reports the sender through its observer.
	isOrigin := make(map[*Node]bool)
	for _, o := range prod.origins {
		isOrigin[o] = true
	}
	sinkAt := make([]map[types.Hash]sim.Time, len(prod.nodes))
	observers := make([]*firstObserver, len(prod.nodes))
	for i, n := range prod.nodes {
		at := make(map[types.Hash]sim.Time)
		sinkAt[i] = at
		n.TxSink = func(tx *types.Transaction) { at[tx.Hash] = n.sched.Now() }
		if !isOrigin[n] {
			observers[i] = &firstObserver{first: make(map[types.Hash]sighting)}
			n.Observer = observers[i]
		}
	}
	prod.schedule(c, func(origin *Node, tx *types.Transaction) { origin.SubmitTx(tx) })
	prod.run(t)

	rr := newRefRelay(ref)
	ref.schedule(c, func(origin *Node, tx *types.Transaction) { rr.sight(origin, tx, nil) })
	ref.run(t)

	for i := range prod.nodes {
		want := rr.first[i]
		if len(sinkAt[i]) != len(want) {
			t.Fatalf("node %d sighted %d txs, reference %d", i, len(sinkAt[i]), len(want))
		}
		for h, w := range want {
			if got, ok := sinkAt[i][h]; !ok || got != w.at {
				t.Fatalf("node %d tx %v: first sighting at %v, reference %v", i, h, got, w.at)
			}
			if observers[i] == nil {
				continue
			}
			if got := observers[i].first[h]; got != w {
				t.Fatalf("node %d tx %v: first observed %+v, reference %+v", i, h, got, w)
			}
		}
	}
	if prod.net.Sent() != ref.net.Sent() {
		t.Fatalf("production sent %d messages, reference %d", prod.net.Sent(), ref.net.Sent())
	}
	// Every sender stream must sit at the same position: the next
	// draw from each is identical.
	for i := range prod.nodes {
		j := (i + 1) % len(prod.nodes)
		a := prod.net.Transmit(prod.nodes[i].netNode, prod.nodes[j].netNode, 100)
		b := ref.net.Transmit(ref.nodes[i].netNode, ref.nodes[j].netNode, 100)
		if a != b {
			t.Fatalf("node %d: next delay draw %v, reference %v", i, a, b)
		}
	}
	return prod.engine.EventsRun(), ref.engine.EventsRun()
}

// TestRelayMatchesReference: the eliding production relay gives every
// node the same first sighting (time and sender) as the un-elided
// reference flood, sends the same wire messages and leaves every
// sender stream at the same position, under jittered geo latencies,
// forced equal-time ties, concurrent floods and mid-flood disconnects.
func TestRelayMatchesReference(t *testing.T) {
	for _, c := range floodCases {
		prodEvents, refEvents := runFloodDiff(t, c)
		if prodEvents >= refEvents {
			t.Errorf("seed %d: production ran %d events, reference %d: nothing elided", c.seed, prodEvents, refEvents)
		}
	}
}

// FuzzTxFlood drives the differential flood over random graphs,
// latency models, submission spacings and cut times.
func FuzzTxFlood(f *testing.F) {
	for _, c := range floodCases {
		f.Add(c.seed, uint8(c.nodes-200), uint8(c.outDegree), c.zeroJitter, uint8(c.txs),
			uint16(c.spacing/time.Millisecond), uint16(c.cutAt/time.Millisecond))
	}
	f.Fuzz(func(t *testing.T, seed int64, extraNodes, outDegree uint8, zeroJitter bool, txs uint8, spacingMs, cutMs uint16) {
		runFloodDiff(t, floodCase{
			seed:       seed,
			nodes:      200 + int(extraNodes%64),
			outDegree:  2 + int(outDegree%10),
			zeroJitter: zeroJitter,
			txs:        1 + int(txs%16),
			spacing:    time.Duration(spacingMs%500) * time.Millisecond,
			cutAt:      time.Duration(cutMs%1000) * time.Millisecond,
		})
	})
}
