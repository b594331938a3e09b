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
// and at cutAt (mid-flood when cutAt falls inside a flood) one link
// cut and re-dialled and one node departure.
type floodCase struct {
	seed       int64
	nodes      int
	outDegree  int
	zeroJitter bool // uniform 10 ms links and equal bandwidth: equal-time ties everywhere
	slowHalf   bool // every other node on a 2 kB/s link: early relays are often overtaken
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
	// Superseded arrivals: a message relayed through a slow node is
	// overtaken by one relayed later through a fast node.
	{seed: 6, nodes: 220, outDegree: 6, slowHalf: true, txs: 6, spacing: 100 * time.Millisecond, cutAt: 150 * time.Millisecond},
	// Overlapping concurrent floods: 16 txs from three origins, 3 ms
	// apart, all in flight at once.
	{seed: 7, nodes: 230, outDegree: 7, txs: 16, spacing: 3 * time.Millisecond, cutAt: 40 * time.Millisecond},
	// Superseded arrivals in overlapping floods.
	{seed: 8, nodes: 240, outDegree: 6, slowHalf: true, txs: 10, spacing: 10 * time.Millisecond, cutAt: 50 * time.Millisecond},
	// The fuzzer's largest and densest graph, every tx at once.
	{seed: 9, nodes: 263, outDegree: 11, txs: 16, spacing: 0, cutAt: 25 * time.Millisecond},
}

// sighting is a node's first sighting of a transaction: when, and from
// which peer (-1 for the node's own submission).
type sighting struct {
	at   sim.Time
	from types.NodeID
}

// floodNet is one instance of a floodCase. Two instances of the same
// case are identical down to edge order and seed, so one can run the
// production relay and the other the reference relay.
type floodNet struct {
	engine  *sim.Engine
	net     *simnet.Network
	cfg     Config
	nodes   []*Node
	origins []*Node
	txs     []*types.Transaction
	cut     [2]*Node // link severed and dialled afresh at cutAt
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
		if c.slowHalf && i%2 == 1 {
			bw = 2e3
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
	f.cut = [2]*Node{a, a.Peers()[rng.Intn(a.NumPeers())]}
	f.leaver = f.nodes[rng.Intn(len(f.nodes))]
	return f
}

// schedule queues the submissions and the mid-flood topology changes
// before the run, so they take the lowest sequence numbers in both
// instances. A message in flight between the cut pair arrives over a
// torn-down link, so its receiver relays back to its sender over the
// new one.
func (f *floodNet) schedule(c floodCase, submit func(origin *Node, tx *types.Transaction)) {
	for i, tx := range f.txs {
		origin, tx := f.origins[i%len(f.origins)], tx
		f.engine.Schedule(time.Duration(i)*c.spacing, func() { submit(origin, tx) })
	}
	f.engine.Schedule(c.cutAt, func() {
		Disconnect(f.cut[0], f.cut[1])
		f.leaver.DisconnectAll()
		Connect(f.cut[0], f.cut[1])
	})
}

func (f *floodNet) run(tb testing.TB) {
	tb.Helper()
	if _, err := f.engine.Run(time.Hour); err != nil {
		tb.Fatal(err)
	}
}

// refRelay is the un-elided reference flood: every first sighting
// relays over every link but the one it came over, while that link
// lives (a delivery carries its receiver's handle for the link, as a
// block message does), every message's delay is computed
// with Transmit, and every delivery is scheduled and run as its own
// event. Deliveries that reach an unsighted node at one instant are
// gathered, and a resolve event at that instant, which runs after all
// of them (they were scheduled earlier), sights the one from the lowest
// sender ID. It counts superseded arrivals: deliveries scheduled to a
// node that has not sighted the tx yet and that beat every delivery of
// it already scheduled there.
type refRelay struct {
	first      []map[types.Hash]sighting
	earliest   []map[types.Hash]refArrival // earliest scheduled arrival of unsighted txs
	gathered   []map[types.Hash]refArrival // lowest-sender delivery at this instant, awaiting resolve
	sinks      []refSink
	superseded int64
}

type refArrival struct {
	at   sim.Time
	from types.NodeID
	via  uint64 // the receiver's handle for the link, in gathered
}

func (a refArrival) less(b refArrival) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.from < b.from
}

type refSink struct {
	r *refRelay
	n *Node
}

// Event kinds of the reference flood's events.
const (
	refDeliver = iota + 1
	refResolve
)

func (s *refSink) HandleSimEvent(arg sim.Arg) {
	tx := arg.A.(*types.Transaction)
	if arg.K == refResolve {
		a := s.r.gathered[s.n.ID()][tx.Hash]
		delete(s.r.gathered[s.n.ID()], tx.Hash)
		s.r.sight(s.n, tx, a.from, a.via)
		return
	}
	s.r.deliver(s.n, tx, refArrival{at: s.n.sched.Now(), from: arg.B.(*Node).ID(), via: arg.U})
}

func newRefRelay(f *floodNet) *refRelay {
	r := &refRelay{
		first:    make([]map[types.Hash]sighting, len(f.nodes)),
		earliest: make([]map[types.Hash]refArrival, len(f.nodes)),
		gathered: make([]map[types.Hash]refArrival, len(f.nodes)),
		sinks:    make([]refSink, len(f.nodes)),
	}
	for i, n := range f.nodes {
		r.first[i] = make(map[types.Hash]sighting)
		r.earliest[i] = make(map[types.Hash]refArrival)
		r.gathered[i] = make(map[types.Hash]refArrival)
		r.sinks[i] = refSink{r: r, n: n}
	}
	return r
}

// deliver is one message of tx reaching n.
func (r *refRelay) deliver(n *Node, tx *types.Transaction, a refArrival) {
	if _, ok := r.first[n.ID()][tx.Hash]; ok {
		return
	}
	gathered := r.gathered[n.ID()]
	prev, ok := gathered[tx.Hash]
	if !ok {
		n.sched.ScheduleArg(n.sched.Now(), &r.sinks[n.ID()], sim.Arg{A: tx, K: refResolve})
	}
	if !ok || a.from < prev.from {
		gathered[tx.Hash] = a
	}
}

// sight is n's first sighting of tx, from a peer over the link n's
// handle via names (from -1 and via handle(-1) for n's own submission).
func (r *refRelay) sight(n *Node, tx *types.Transaction, from types.NodeID, via uint64) {
	first := r.first[n.ID()]
	if _, ok := first[tx.Hash]; ok {
		return
	}
	first[tx.Hash] = sighting{at: n.sched.Now(), from: from}
	skip := n.known.resolve(via)
	for _, l := range n.links {
		if l.slot == skip {
			continue
		}
		peer := n.tab.nodes[l.peer]
		at := n.sched.Now() + n.net.Transmit(n.netNode, peer.netNode, tx.Size, txKind, uint64(tx.Hash))
		r.countSupersession(peer, tx.Hash, refArrival{at: at, from: n.ID()})
		arg := sim.Arg{A: tx, B: n, U: peer.known.handle(l.peerSlot), K: refDeliver}
		n.sched.ScheduleArg(at, &r.sinks[peer.ID()], arg)
	}
}

// countSupersession records a delivery of h reaching peer as a.
func (r *refRelay) countSupersession(peer *Node, h types.Hash, a refArrival) {
	if _, ok := r.first[peer.ID()][h]; ok {
		return
	}
	earliest := r.earliest[peer.ID()]
	if prev, ok := earliest[h]; ok && !a.less(prev) {
		return
	} else if ok {
		r.superseded++
	}
	earliest[h] = a
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
// relay and fails on any difference in first sightings or wire-message
// counts. It returns the event counts and the reference's
// superseded-arrival count.
func runFloodDiff(t *testing.T, c floodCase) (prodEvents, refEvents uint64, superseded int64) {
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
	ref.schedule(c, func(origin *Node, tx *types.Transaction) { rr.sight(origin, tx, -1, origin.known.handle(-1)) })
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
	return prod.engine.EventsRun(), ref.engine.EventsRun(), rr.superseded
}

// TestRelayMatchesReference: the flooding production relay gives every
// node the same first sighting (time and sender) as the un-elided
// reference flood and counts the same wire messages, under jittered geo
// latencies, forced equal-time ties, superseded arrivals, overlapping
// concurrent floods, mid-flood disconnects and a pair re-dialled with
// messages in flight between them.
func TestRelayMatchesReference(t *testing.T) {
	for _, c := range floodCases {
		prodEvents, refEvents, superseded := runFloodDiff(t, c)
		if prodEvents >= refEvents {
			t.Errorf("seed %d: production ran %d events, reference %d: nothing elided", c.seed, prodEvents, refEvents)
		}
		if c.slowHalf && superseded < 100 {
			t.Errorf("seed %d: only %d superseded arrivals; the case no longer forces them", c.seed, superseded)
		}
	}
}

// TestFloodOneEventPerNode: a flood sights the transaction exactly
// once at every node and runs exactly one engine event per node it
// reaches after the origin — superseded and dead arrivals never become
// events.
func TestFloodOneEventPerNode(t *testing.T) {
	for _, c := range []floodCase{floodCases[0], floodCases[3], floodCases[5]} {
		f := newFloodNet(t, c)
		tx := f.txs[0]
		sightings := make([]int, len(f.nodes))
		for i, n := range f.nodes {
			n.TxSink = func(*types.Transaction) { sightings[i]++ }
		}
		f.engine.Schedule(0, func() { f.origins[0].SubmitTx(tx) })
		f.run(t)
		reached := 0
		for i, k := range sightings {
			if k > 1 {
				t.Fatalf("seed %d: node %d sighted the tx %d times", c.seed, i, k)
			}
			reached += k
		}
		if reached != len(f.nodes) {
			t.Fatalf("seed %d: flood reached %d of %d nodes", c.seed, reached, len(f.nodes))
		}
		// One event submits; the flood runs the rest.
		if got, want := f.engine.EventsRun(), uint64(1+reached-1); got != want {
			t.Errorf("seed %d: %d events for a flood reaching %d nodes, want %d", c.seed, got, reached, want)
		}
	}
}

// TestFloodComputesFewDelays: on a 1 000-node graph at the default
// latencies, a flood computes the delay of at most 20 % of the
// messages it relays. The rest reach a node already settled in the
// flood or lose to its pending arrival even at the pair's delay floor.
func TestFloodComputesFewDelays(t *testing.T) {
	engine := sim.NewEngine(1)
	net := simnet.New(engine, geo.DefaultLatencyModel())
	reg := chain.NewRegistry(0, types.NewHashIssuer(1))
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	regions := geo.GlobalNodeDistribution()
	nodes := make([]*Node, 1000)
	for i := range nodes {
		ep, err := net.AddNode(regions.Sample(rng), 12.5e6)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = NewNode(&cfg, net, ep, reg)
	}
	if err := BuildRandomTopology(rng, nodes, 8); err != nil {
		t.Fatal(err)
	}
	issuer := types.NewHashIssuer(2)
	for i := 0; i < 20; i++ {
		origin, tx := nodes[rng.Intn(len(nodes))], &types.Transaction{Hash: issuer.Next(), Size: types.TxSize}
		engine.Schedule(time.Duration(i)*50*time.Millisecond, func() { origin.SubmitTx(tx) })
	}
	if _, err := engine.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	delays := nodes[0].tab.delays
	share := float64(delays) / float64(net.Sent())
	t.Logf("%d of %d relayed messages computed a delay (%.1f %%)", delays, net.Sent(), 100*share)
	if share > 0.20 {
		t.Errorf("%.1f %% of relayed messages computed a delay, want at most 20 %%", 100*share)
	}
}

// FuzzTxFlood drives the differential flood over random graphs,
// latency models, bandwidth mixes, submission spacings and cut times.
func FuzzTxFlood(f *testing.F) {
	for _, c := range floodCases {
		f.Add(c.seed, uint8(c.nodes-200), uint8(c.outDegree-2), c.zeroJitter, c.slowHalf, uint8(c.txs-1),
			uint16(c.spacing/time.Millisecond), uint16(c.cutAt/time.Millisecond))
	}
	f.Fuzz(func(t *testing.T, seed int64, extraNodes, outDegree uint8, zeroJitter, slowHalf bool, txs uint8, spacingMs, cutMs uint16) {
		runFloodDiff(t, floodCase{
			seed:       seed,
			nodes:      200 + int(extraNodes%64),
			outDegree:  2 + int(outDegree%10),
			zeroJitter: zeroJitter,
			slowHalf:   slowHalf,
			txs:        1 + int(txs%16),
			spacing:    time.Duration(spacingMs%500) * time.Millisecond,
			cutAt:      time.Duration(cutMs%1000) * time.Millisecond,
		})
	})
}
