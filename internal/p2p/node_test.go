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
	if Connect(a, a) != nil {
		t.Error("self-connect should return nil")
	}
	e1 := Connect(a, b)
	e2 := Connect(b, a)
	if e1 == nil || e1 != e2 {
		t.Error("reconnect must return the existing edge")
	}
	if a.NumPeers() != 1 || b.NumPeers() != 1 {
		t.Errorf("peer counts %d/%d", a.NumPeers(), b.NumPeers())
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
	if n.ProcSpeed() != 1 {
		t.Error("negative speed should be ignored")
	}
	n.SetProcSpeed(0)
	if n.ProcSpeed() != 1 {
		t.Error("zero speed should be ignored")
	}
	n.SetProcSpeed(2)
	if n.ProcSpeed() != 2 {
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
	h.nodes[1].handleBlock(b, h.nodes[1].edges[0], MsgFullBlock)
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
	if a.NumPeers() != 1 || b.NumPeers() != 1 {
		t.Errorf("peer counts after disconnect: %d/%d", a.NumPeers(), b.NumPeers())
	}
	if a.Peers()[0] != c || b.Peers()[0] != c {
		t.Error("surviving edges wrong")
	}
	// Disconnecting again is a no-op.
	Disconnect(a, b)
	if a.NumPeers() != 1 {
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
	if n.NumPeers() != 0 {
		t.Fatalf("peers after DisconnectAll = %d", n.NumPeers())
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
// pair, a 300-peer hub and a 3-peer leaf, where edgeTo scans the
// leaf's list whichever side asks: reconnecting from either side
// returns the existing edge, and a pair torn down by Disconnect or by
// either side's DisconnectAll is no longer peered and connects afresh.
func TestConnectFindsEdgeFromEitherSide(t *testing.T) {
	h := newHarness(t, 302, DefaultConfig())
	hub, leaf := h.nodes[0], h.nodes[1]
	for _, p := range h.nodes[2:] {
		Connect(hub, p)
	}
	Connect(leaf, h.nodes[2])
	Connect(leaf, h.nodes[3])
	edge := Connect(leaf, hub)
	if hub.NumPeers() != 301 || leaf.NumPeers() != 3 {
		t.Fatalf("peer counts %d/%d, want 301/3", hub.NumPeers(), leaf.NumPeers())
	}
	check := func(stage string, want *Edge) {
		t.Helper()
		if got := hub.edgeTo(leaf); got != want {
			t.Errorf("%s: hub.edgeTo(leaf) = %p, want %p", stage, got, want)
		}
		if got := leaf.edgeTo(hub); got != want {
			t.Errorf("%s: leaf.edgeTo(hub) = %p, want %p", stage, got, want)
		}
	}
	check("connected", edge)
	if Connect(hub, leaf) != edge || Connect(leaf, hub) != edge {
		t.Fatal("reconnecting a connected pair must return the existing edge")
	}
	if hub.NumPeers() != 301 || leaf.NumPeers() != 3 {
		t.Fatalf("reconnect changed peer counts to %d/%d", hub.NumPeers(), leaf.NumPeers())
	}
	if hub.edgeTo(h.nodes[300]) == nil || leaf.edgeTo(h.nodes[300]) != nil {
		t.Fatal("edgeTo misreports a pair other than hub–leaf")
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
		check(td.name, nil)
		edge = Connect(hub, leaf)
		if edge == nil {
			t.Fatalf("%s: reconnect returned nil", td.name)
		}
		check(td.name+" then Connect", edge)
		if Connect(leaf, hub) != edge {
			t.Fatalf("%s: reconnect from the other side made a second edge", td.name)
		}
	}
	if hub.NumPeers() != 1 || leaf.NumPeers() != 1 {
		t.Fatalf("after hub DisconnectAll and reconnect: peer counts %d/%d, want 1/1", hub.NumPeers(), leaf.NumPeers())
	}
}
