package p2p

import (
	"testing"
	"time"

	"ethmeasure/internal/chain"
	"ethmeasure/internal/geo"
	"ethmeasure/internal/sim"
	"ethmeasure/internal/simnet"
	"ethmeasure/internal/types"
)

// harness bundles a small protocol network for tests.
type harness struct {
	t      *testing.T
	engine *sim.Engine
	net    *simnet.Network
	reg    *chain.Registry
	issuer *types.HashIssuer
	cfg    Config
	nodes  []*Node
}

func newHarness(t *testing.T, n int, cfg Config) *harness {
	t.Helper()
	engine := sim.NewEngine(1)
	net := simnet.New(engine, geo.UniformLatencyModel(10*time.Millisecond, 0))
	issuer := types.NewHashIssuer(1)
	reg := chain.NewRegistry(0, issuer)
	h := &harness{t: t, engine: engine, net: net, reg: reg, issuer: issuer, cfg: cfg}
	for i := 0; i < n; i++ {
		endpoint, err := net.AddNode(geo.NorthAmerica, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		h.nodes = append(h.nodes, NewNode(&h.cfg, net, endpoint, reg))
	}
	return h
}

// ring connects the nodes in a cycle.
func (h *harness) ring() {
	for i := range h.nodes {
		Connect(h.nodes[i], h.nodes[(i+1)%len(h.nodes)])
	}
}

// full connects every pair.
func (h *harness) full() {
	for i := range h.nodes {
		for j := i + 1; j < len(h.nodes); j++ {
			Connect(h.nodes[i], h.nodes[j])
		}
	}
}

func (h *harness) mineBlock(parent *types.Block, miner types.PoolID) *types.Block {
	h.t.Helper()
	b := &types.Block{
		Hash:       h.issuer.Next(),
		Number:     parent.Number + 1,
		ParentHash: parent.Hash,
		Miner:      miner,
		Size:       types.BlockSize(0),
	}
	if err := h.reg.Add(b); err != nil {
		h.t.Fatal(err)
	}
	return b
}

func (h *harness) run(d time.Duration) {
	h.t.Helper()
	if _, err := h.engine.Run(d); err != nil {
		h.t.Fatal(err)
	}
}

func TestConnectDeduplicatesAndRejectsSelf(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig())
	a, b := h.nodes[0], h.nodes[1]
	Connect(a, a)
	if len(a.links) != 0 {
		t.Error("self-connect made a link")
	}
	Connect(a, b)
	Connect(b, a)
	if len(a.links) != 1 || len(b.links) != 1 {
		t.Errorf("peer counts %d/%d", len(a.links), len(b.links))
	}
	if a.Peers()[0] != b {
		t.Error("Peers() wrong")
	}
}

func TestBlockFloodsEntireNetwork(t *testing.T) {
	h := newHarness(t, 12, DefaultConfig())
	h.ring() // worst-case diameter
	b := h.mineBlock(h.reg.Genesis(), 1)
	h.nodes[0].PublishBlock(b)
	h.run(time.Minute)
	for i, n := range h.nodes {
		if !n.View().Knows(b.Hash) {
			t.Errorf("node %d never imported the block", i)
		}
		if n.View().Head().Hash != b.Hash {
			t.Errorf("node %d head = %s", i, n.View().Head().Hash)
		}
	}
}

func TestAnnounceOnlyGossipStillDelivers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SqrtPush = false // ablation: pure announce-and-fetch
	h := newHarness(t, 8, cfg)
	h.ring()
	b := h.mineBlock(h.reg.Genesis(), 1)
	h.nodes[0].PublishBlock(b)
	h.run(2 * time.Minute)
	for i, n := range h.nodes {
		if !n.View().Knows(b.Hash) {
			t.Errorf("node %d missing block under announce-only gossip", i)
		}
	}
}

func TestPushOnlyGossipStillDelivers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AnnounceAfterImport = false
	h := newHarness(t, 8, cfg)
	h.full() // sqrt-push alone does not guarantee ring coverage
	b := h.mineBlock(h.reg.Genesis(), 1)
	h.nodes[0].PublishBlock(b)
	h.run(2 * time.Minute)
	reached := 0
	for _, n := range h.nodes {
		if n.View().Knows(b.Hash) {
			reached++
		}
	}
	// sqrt-push repeatedly forwards; on a full graph everyone is
	// reachable by pushes alone.
	if reached != len(h.nodes) {
		t.Errorf("push-only reached %d of %d", reached, len(h.nodes))
	}
}

// countingObserver tallies observed messages.
type countingObserver struct {
	full, fetched, announces, txs int
	lastFrom                      types.NodeID
}

func (c *countingObserver) ObserveBlock(_ sim.Time, _ *types.Block, from types.NodeID, kind MsgKind) {
	switch kind {
	case MsgFullBlock:
		c.full++
	case MsgFetchedBlock:
		c.fetched++
	}
	c.lastFrom = from
}

func (c *countingObserver) ObserveAnnounce(_ sim.Time, _ types.Hash, _ uint64, from types.NodeID) {
	c.announces++
	c.lastFrom = from
}

func (c *countingObserver) ObserveTx(_ sim.Time, _ *types.Transaction, from types.NodeID) {
	c.txs++
	c.lastFrom = from
}

func TestObserverSeesEveryReception(t *testing.T) {
	h := newHarness(t, 6, DefaultConfig())
	h.full()
	obs := &countingObserver{}
	h.nodes[5].Observer = obs
	b := h.mineBlock(h.reg.Genesis(), 1)
	h.nodes[0].PublishBlock(b)
	h.run(time.Minute)
	total := obs.full + obs.announces + obs.fetched
	if total == 0 {
		t.Fatal("observer saw nothing")
	}
	// Suppression bounds: at most one message per edge plus the
	// initial pushes; never more than one reception per peer per kind.
	if obs.full > 5 || obs.announces > 5 {
		t.Errorf("full=%d announces=%d exceed peer count", obs.full, obs.announces)
	}
}

func TestKnownPeerSuppressionBoundsTraffic(t *testing.T) {
	h := newHarness(t, 10, DefaultConfig())
	h.full()
	b := h.mineBlock(h.reg.Genesis(), 1)
	h.nodes[0].PublishBlock(b)
	h.run(time.Minute)
	delivered := h.net.Sent()
	// Upper bound: every edge carries at most ~2 block messages plus
	// fetches; 45 edges → allow generous slack but catch explosions.
	if delivered > 200 {
		t.Errorf("delivered %d messages for one block on 45 edges", delivered)
	}
}

func TestFetchAfterAnnounceTimeout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SqrtPush = false
	h := newHarness(t, 2, cfg)
	h.ring()
	obs := &countingObserver{}
	h.nodes[1].Observer = obs
	b := h.mineBlock(h.reg.Genesis(), 1)
	h.nodes[0].PublishBlock(b)
	h.run(time.Minute)
	if obs.announces != 1 {
		t.Errorf("announces = %d, want 1", obs.announces)
	}
	if obs.fetched != 1 {
		t.Errorf("fetched = %d, want 1 (block must arrive via fetch)", obs.fetched)
	}
	if !h.nodes[1].View().Knows(b.Hash) {
		t.Error("fetched block not imported")
	}
}

func TestTxFloodsAndDeduplicates(t *testing.T) {
	h := newHarness(t, 8, DefaultConfig())
	h.ring()
	sink := 0
	h.nodes[4].TxSink = func(*types.Transaction) { sink++ }
	tx := &types.Transaction{Hash: 0x1234, Sender: 1, Size: types.TxSize}
	h.nodes[0].SubmitTx(tx)
	h.run(time.Minute)
	if sink != 1 {
		t.Errorf("TxSink fired %d times, want exactly 1", sink)
	}
	// Re-submitting the same tx must not re-flood.
	before := h.net.Sent()
	h.nodes[0].SubmitTx(tx)
	h.run(2 * time.Minute)
	if h.net.Sent() != before {
		t.Error("duplicate submit generated traffic")
	}
}

// TestRelayElidesDeadDeliveries: on a 3-clique with equal link delays
// d, node 0's submission reaches nodes 1 and 2 at d. Node 1 relays to
// node 2 (arriving 2d, after node 2's pending arrival at d) and node
// 2 relays to node 1 (which already holds the tx): both relays are
// dead, so only the two first arrivals become events, while all four
// wire messages are still counted.
func TestRelayElidesDeadDeliveries(t *testing.T) {
	h := newHarness(t, 3, DefaultConfig())
	h.full()
	obs := &countingObserver{}
	h.nodes[2].Observer = obs
	h.nodes[0].SubmitTx(&types.Transaction{Hash: 0x1234, Sender: 1, Size: types.TxSize})
	h.run(time.Minute)
	if got := h.engine.EventsRun(); got != 2 {
		t.Errorf("ran %d delivery events, want 2", got)
	}
	if got := h.net.Sent(); got != 4 {
		t.Errorf("sent %d wire messages, want 4", got)
	}
	if obs.txs != 1 || obs.lastFrom != h.nodes[0].ID() {
		t.Errorf("node 2 observed %d deliveries (last from %v), want 1 from node 0", obs.txs, obs.lastFrom)
	}
	if got := h.engine.Pending(); got != 0 {
		t.Errorf("%d events still pending after the flood", got)
	}
}

// TestSubmitTxRejectsObservedNode: an observer must first sight every
// transaction through a delivery, so observed nodes cannot originate.
func TestSubmitTxRejectsObservedNode(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig())
	h.ring()
	h.nodes[0].Observer = &countingObserver{}
	defer func() {
		if recover() == nil {
			t.Fatal("SubmitTx on an observed node did not panic")
		}
	}()
	h.nodes[0].SubmitTx(&types.Transaction{Hash: 0x1234, Size: types.TxSize})
}

func TestOnNewHeadFiresOncePerReorg(t *testing.T) {
	h := newHarness(t, 3, DefaultConfig())
	h.full()
	var heads []types.Hash
	h.nodes[2].OnNewHead = func(b *types.Block) { heads = append(heads, b.Hash) }
	b1 := h.mineBlock(h.reg.Genesis(), 1)
	b2 := h.mineBlock(b1, 1)
	h.nodes[0].PublishBlock(b1)
	h.run(5 * time.Second)
	h.nodes[0].PublishBlock(b2)
	h.run(time.Minute)
	if len(heads) != 2 || heads[0] != b1.Hash || heads[1] != b2.Hash {
		t.Errorf("head sequence = %v", heads)
	}
}

func TestProcSpeedScalesImportLatency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ImportJitter = 0 // deterministic timing
	h := newHarness(t, 3, cfg)
	Connect(h.nodes[0], h.nodes[1])
	Connect(h.nodes[0], h.nodes[2])
	h.nodes[1].SetProcSpeed(0.25)
	h.nodes[2].SetProcSpeed(4.0)

	var fastAt, slowAt sim.Time
	h.nodes[1].OnNewHead = func(*types.Block) { fastAt = h.engine.Now() }
	h.nodes[2].OnNewHead = func(*types.Block) { slowAt = h.engine.Now() }
	b := h.mineBlock(h.reg.Genesis(), 1)
	h.nodes[0].PublishBlock(b)
	h.run(time.Minute)
	if fastAt == 0 || slowAt == 0 {
		t.Fatal("heads did not update")
	}
	if fastAt >= slowAt {
		t.Errorf("fast node imported at %v, slow at %v", fastAt, slowAt)
	}
}

func TestSetProcSpeedIgnoresNonPositive(t *testing.T) {
	h := newHarness(t, 1, DefaultConfig())
	n := h.nodes[0]
	n.SetProcSpeed(-1)
	if n.procSpeed != 1 {
		t.Error("negative speed should be ignored")
	}
	n.SetProcSpeed(0)
	if n.procSpeed != 1 {
		t.Error("zero speed should be ignored")
	}
	n.SetProcSpeed(2)
	if n.procSpeed != 2 {
		t.Error("valid speed not applied")
	}
}

func TestCompetingBlocksFirstSeenWins(t *testing.T) {
	h := newHarness(t, 2, DefaultConfig())
	h.ring()
	a := h.mineBlock(h.reg.Genesis(), 1)
	b := h.mineBlock(h.reg.Genesis(), 2)
	h.nodes[0].PublishBlock(a)
	h.run(30 * time.Second)
	h.nodes[1].handleBlock(b, h.nodes[0], h.nodes[1].known.handle(h.nodes[1].links[0].slot), MsgFullBlock)
	h.run(time.Minute)
	// Both know both blocks; heads keep the first-seen (a for node 0).
	if h.nodes[0].View().Head().Hash != a.Hash {
		t.Errorf("node 0 head = %s, want first-seen %s", h.nodes[0].View().Head().Hash, a.Hash)
	}
}

func TestDisconnectPair(t *testing.T) {
	h := newHarness(t, 3, DefaultConfig())
	h.full()
	a, b, c := h.nodes[0], h.nodes[1], h.nodes[2]
	Disconnect(a, b)
	if len(a.links) != 1 || len(b.links) != 1 {
		t.Errorf("peer counts after disconnect: %d/%d", len(a.links), len(b.links))
	}
	if a.Peers()[0] != c || b.Peers()[0] != c {
		t.Error("surviving edges wrong")
	}
	// Disconnecting again is a no-op.
	Disconnect(a, b)
	if len(a.links) != 1 {
		t.Error("repeat disconnect changed state")
	}
	// Traffic still flows via c.
	blk := h.mineBlock(h.reg.Genesis(), 1)
	a.PublishBlock(blk)
	h.run(time.Minute)
	if !b.View().Knows(blk.Hash) {
		t.Error("block failed to route around the removed edge")
	}
}

func TestDisconnectAllAndRejoin(t *testing.T) {
	h := newHarness(t, 5, DefaultConfig())
	h.full()
	n := h.nodes[2]
	n.DisconnectAll()
	if len(n.links) != 0 {
		t.Fatalf("peers after DisconnectAll = %d", len(n.links))
	}
	for i, other := range h.nodes {
		if other == n {
			continue
		}
		for _, p := range other.Peers() {
			if p == n {
				t.Errorf("node %d still lists the departed peer", i)
			}
		}
	}
	// A block published while offline is missed...
	b1 := h.mineBlock(h.reg.Genesis(), 1)
	h.nodes[0].PublishBlock(b1)
	h.run(30 * time.Second)
	if n.View().Knows(b1.Hash) {
		t.Error("offline node received a block")
	}
	// ...but after rejoining, new blocks arrive again.
	Connect(n, h.nodes[0])
	b2 := h.mineBlock(b1, 1)
	h.nodes[0].PublishBlock(b2)
	h.run(time.Minute)
	if !n.View().Knows(b2.Hash) {
		t.Error("rejoined node missed the next block")
	}
	if n.View().Head().Hash != b2.Hash {
		t.Error("rejoined node head not updated (import must not require the missed parent)")
	}
}

// TestConnectFindsEdgeFromEitherSide pins the dial check on a lopsided
// pair, a 300-peer hub and a 3-peer leaf, where linkTo scans the
// leaf's list whichever side asks: each side finds its own end of the
// link, reconnecting from either side leaves the one link, and a pair
// torn down by Disconnect or by either side's DisconnectAll is no
// longer peered and connects afresh.
func TestConnectFindsEdgeFromEitherSide(t *testing.T) {
	h := newHarness(t, 302, DefaultConfig())
	hub, leaf := h.nodes[0], h.nodes[1]
	for _, p := range h.nodes[2:] {
		Connect(hub, p)
	}
	Connect(leaf, h.nodes[2])
	Connect(leaf, h.nodes[3])
	Connect(leaf, hub)
	if len(hub.links) != 301 || len(leaf.links) != 3 {
		t.Fatalf("peer counts %d/%d, want 301/3", len(hub.links), len(leaf.links))
	}
	check := func(stage string, peered bool) {
		t.Helper()
		hl, hok := hub.linkTo(leaf)
		lh, lok := leaf.linkTo(hub)
		if hok != peered || lok != peered {
			t.Fatalf("%s: hub.linkTo(leaf) found %v, leaf.linkTo(hub) %v, want %v", stage, hok, lok, peered)
		}
		if !peered {
			return
		}
		if hl != hub.links[len(hub.links)-1] || lh != leaf.links[len(leaf.links)-1] {
			t.Errorf("%s: linkTo gave %+v / %+v, want the newest ends %+v / %+v",
				stage, hl, lh, hub.links[len(hub.links)-1], leaf.links[len(leaf.links)-1])
		}
		if hl.peer != leaf.ID() || lh.peer != hub.ID() || hl.slot != lh.peerSlot || hl.peerSlot != lh.slot {
			t.Errorf("%s: ends %+v / %+v do not name each other", stage, hl, lh)
		}
	}
	check("connected", true)
	Connect(hub, leaf)
	Connect(leaf, hub)
	if len(hub.links) != 301 || len(leaf.links) != 3 {
		t.Fatalf("reconnect changed peer counts to %d/%d", len(hub.links), len(leaf.links))
	}
	if _, ok := hub.linkTo(h.nodes[300]); !ok {
		t.Fatal("linkTo misses the hub's link to node 300")
	}
	if _, ok := leaf.linkTo(h.nodes[300]); ok {
		t.Fatal("linkTo finds a leaf link to node 300")
	}

	teardowns := []struct {
		name string
		drop func()
	}{
		{"Disconnect", func() { Disconnect(hub, leaf) }},
		{"leaf DisconnectAll", leaf.DisconnectAll},
		{"hub DisconnectAll", hub.DisconnectAll},
	}
	for _, td := range teardowns {
		td.drop()
		check(td.name, false)
		Connect(hub, leaf)
		check(td.name+" then Connect", true)
		Connect(leaf, hub)
		check(td.name+" then Connect from the other side", true)
	}
	if len(hub.links) != 1 || len(leaf.links) != 1 {
		t.Fatalf("after hub DisconnectAll and reconnect: peer counts %d/%d, want 1/1", len(hub.links), len(leaf.links))
	}
}

// staleObserver records the senders of the block deliveries to node
// x and checks that the first marked no slot of x.
type staleObserver struct {
	t    *testing.T
	x    *Node
	from []types.NodeID
}

func (o *staleObserver) ObserveBlock(_ sim.Time, b *types.Block, from types.NodeID, _ MsgKind) {
	r := o.x.known.find(b.Hash)
	for _, l := range o.x.links {
		if len(o.from) == 0 && o.x.known.has(r, l.slot) {
			o.t.Errorf("delivery from node %v over a torn-down link marked slot %d (link to node %v)", from, l.slot, l.peer)
		}
	}
	o.from = append(o.from, from)
}

func (o *staleObserver) ObserveAnnounce(sim.Time, types.Hash, uint64, types.NodeID) {}
func (o *staleObserver) ObserveTx(sim.Time, *types.Transaction, types.NodeID)       {}

// TestDeliveryOverTornDownLinkMarksNothing: a block in flight from y
// to x when the x–y link is torn down is still delivered to x and
// observed as coming from y, but marks no slot of x, although x's
// freed slot already holds a new link: to a third node z, or to y
// again, re-dialled.
func TestDeliveryOverTornDownLinkMarksNothing(t *testing.T) {
	for _, redial := range []bool{false, true} {
		h := newHarness(t, 3, DefaultConfig())
		x, y, z := h.nodes[0], h.nodes[1], h.nodes[2]
		obs := &staleObserver{t: t, x: x}
		x.Observer = obs
		Connect(x, y)
		b := h.mineBlock(h.reg.Genesis(), 1)
		y.PublishBlock(b) // one push to x, its only peer
		slot := x.links[0].slot
		Disconnect(x, y)
		if redial {
			Connect(x, y)
		} else {
			Connect(x, z)
		}
		if x.links[0].slot != slot {
			t.Fatalf("redial %v: new link on slot %d, want the freed slot %d", redial, x.links[0].slot, slot)
		}
		h.run(time.Minute)
		if len(obs.from) == 0 || obs.from[0] != y.ID() {
			t.Fatalf("redial %v: x observed block deliveries from %v, want the first from y (%v)", redial, obs.from, y.ID())
		}
	}
}
