package p2p

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"ethmeasure/internal/chain"
	"ethmeasure/internal/geo"
	"ethmeasure/internal/sim"
	"ethmeasure/internal/simnet"
	"ethmeasure/internal/types"
)

// newRecyclerHarness is newHarness with nodes drawn from a Recycler,
// so Reclaim + rebuild cycles can be driven directly.
func newRecyclerHarness(t *testing.T, rec *Recycler, n int, cfg Config) *harness {
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
		h.nodes = append(h.nodes, rec.NewNode(&h.cfg, net, endpoint, reg))
	}
	return h
}

// floodTrace floods one transaction from node 0 of a full mesh and
// returns every other node's first observation, the wire messages sent
// and the events run: the observable outcome a warm rerun must
// reproduce exactly.
func floodTrace(h *harness) (first []sighting, sent, events uint64) {
	h.t.Helper()
	h.full()
	obs := make([]*firstObserver, len(h.nodes)-1)
	for i, n := range h.nodes[1:] {
		obs[i] = &firstObserver{first: make(map[types.Hash]sighting)}
		n.Observer = obs[i]
	}
	tx := &types.Transaction{Hash: 0x5678, Size: types.TxSize}
	h.nodes[0].SubmitTx(tx)
	h.run(time.Minute)
	for _, o := range obs {
		first = append(first, o.first[tx.Hash])
	}
	return first, h.net.Sent(), h.engine.EventsRun()
}

// TestRecyclerResetsNodeState dirties a network (gossip run, custom
// proc speed, observer callbacks, a transaction flood left in flight),
// reclaims it and resets its engine, and checks that a rebuilt node
// carries none of the previous run's observable state, that no flood
// outlives the engine reset, and that a flood on the recycled network
// is bit-identical to one on a cold network.
func TestRecyclerResetsNodeState(t *testing.T) {
	rec := NewRecycler()
	cfg := DefaultConfig()

	h := newRecyclerHarness(t, rec, 4, cfg)
	h.full()
	h.nodes[0].SetProcSpeed(0.5)
	h.nodes[0].Observer = &countingObserver{}
	parent := h.reg.Genesis()
	b := h.mineBlock(parent, 1)
	h.nodes[0].PublishBlock(b)
	h.run(5 * time.Second)
	for _, n := range h.nodes {
		if n.View().Head() != b {
			t.Fatalf("gossip did not converge before reclaim")
		}
	}

	// A flood left in flight: its event is pending and the origin's
	// peers have not sighted the transaction yet.
	tx := &types.Transaction{Hash: 0x1234, Size: types.TxSize}
	h.nodes[1].SubmitTx(tx)
	if h.engine.Pending() != 1 || h.nodes[2].knownTxs.Has(tx.Hash) {
		t.Fatalf("test premise broken: %d events pending, want the flood's one", h.engine.Pending())
	}

	rec.Reclaim(h.nodes)
	h.engine.Reset(1)
	if h.engine.Pending() != 0 {
		t.Fatalf("engine reset left %d events: the flood survived", h.engine.Pending())
	}
	st := rec.Stats()
	if st.NodesFree != 4 {
		t.Fatalf("reclaimed %d nodes, want 4", st.NodesFree)
	}
	// full() on 4 nodes makes 6 edges, each reclaimed exactly once via
	// its a-endpoint.
	if st.EdgesFree != 6 {
		t.Fatalf("reclaimed %d edges, want 6", st.EdgesFree)
	}

	h2 := newRecyclerHarness(t, rec, 4, cfg)
	h2.ring()
	st = rec.Stats()
	if st.NodesReused != 4 {
		t.Fatalf("reused %d nodes, want 4", st.NodesReused)
	}
	if st.EdgesReused != 4 {
		t.Fatalf("reused %d edges, want 4 (ring)", st.EdgesReused)
	}
	for i, n := range h2.nodes {
		if got := n.NumPeers(); got != 2 {
			t.Errorf("node %d: %d peers after ring, want 2", i, got)
		}
		if n.ProcSpeed() != 1 {
			t.Errorf("node %d: proc speed %v leaked through recycle", i, n.ProcSpeed())
		}
		if n.Observer != nil || n.OnNewHead != nil || n.TxSink != nil {
			t.Errorf("node %d: callbacks leaked through recycle", i)
		}
		if n.knownTxs.Len() != 0 {
			t.Errorf("node %d: known-tx cache not emptied", i)
		}
		if n.seenBlocks.Len() != 0 || n.fetching.Len() != 0 {
			t.Errorf("node %d: block tracking sets not emptied", i)
		}
		if n.View().Head() != h2.reg.Genesis() {
			t.Errorf("node %d: view not reset to genesis", i)
		}
	}

	// The recycled network must behave exactly like a cold one: a fresh
	// block gossips to everybody.
	b2 := h2.mineBlock(h2.reg.Genesis(), 2)
	h2.nodes[0].PublishBlock(b2)
	h2.run(5 * time.Second)
	for i, n := range h2.nodes {
		if n.View().Head() != b2 {
			t.Errorf("node %d: recycled network failed to gossip", i)
		}
	}

	// And a transaction flood on a recycled network (equal link delays,
	// so tie order decides every sender) matches a cold one exactly.
	rec.Reclaim(h2.nodes)
	coldFirst, coldSent, coldEvents := floodTrace(newHarness(t, 4, cfg))
	warm := newRecyclerHarness(t, rec, 4, cfg)
	warmFirst, warmSent, warmEvents := floodTrace(warm)
	if rec.Stats().NodesReused != 8 {
		t.Fatalf("reused %d nodes, want 8", rec.Stats().NodesReused)
	}
	if fmt.Sprint(warmFirst) != fmt.Sprint(coldFirst) || warmSent != coldSent || warmEvents != coldEvents {
		t.Errorf("warm flood: sightings %v, %d sent, %d events; cold: %v, %d sent, %d events",
			warmFirst, warmSent, warmEvents, coldFirst, coldSent, coldEvents)
	}
	// The finished flood went back to the network's free list holding
	// capacity only.
	pool, _ := (*warm.net.ShardLocal(warm.nodes[0].netNode)).(*floodPool)
	if pool == nil || len(pool.free) != 1 {
		t.Fatalf("free list %+v, want the one released flood", pool)
	}
	if f := pool.free[0]; f.tx != nil || f.sched != nil || f.used != 0 || len(f.heap) != 0 ||
		slices.ContainsFunc(f.slots, func(s floodSlot) bool { return s != floodSlot{} }) ||
		slices.ContainsFunc(f.peers, func(p floodPeer) bool { return p != floodPeer{} }) {
		t.Errorf("released flood keeps state: tx %v, %d used, %d pending", f.tx, f.used, len(f.heap))
	}
}

// TestRecyclerEdgeCachesReset checks a recycled edge's per-link
// known-block caches come back empty and sized for the new config.
func TestRecyclerEdgeCachesReset(t *testing.T) {
	rec := NewRecycler()
	cfg := DefaultConfig()

	h := newRecyclerHarness(t, rec, 2, cfg)
	h.ring() // 2 nodes: one edge
	b := h.mineBlock(h.reg.Genesis(), 1)
	h.nodes[0].PublishBlock(b)
	h.run(time.Second)
	e := h.nodes[0].edges[0]
	if e.aKnownBlocks.Len() == 0 && e.bKnownBlocks.Len() == 0 {
		t.Fatal("test premise broken: gossip left no known-block entries")
	}

	rec.Reclaim(h.nodes)

	cfg2 := DefaultConfig()
	cfg2.KnownBlocksPerPeer = 8
	h2 := newRecyclerHarness(t, rec, 2, cfg2)
	h2.ring()
	e2 := h2.nodes[0].edges[0]
	if rec.Stats().EdgesReused != 1 {
		t.Fatal("edge was not recycled")
	}
	if e2.aKnownBlocks.Len() != 0 || e2.bKnownBlocks.Len() != 0 {
		t.Error("recycled edge caches not emptied")
	}
	// The ring cap follows the new config: pushing 9 hashes through an
	// 8-cap cache must evict, exactly as a cold edge would.
	for i := 0; i < 9; i++ {
		e2.aKnownBlocks.Add(types.Hash(i + 1))
	}
	if got := e2.aKnownBlocks.Len(); got != 8 {
		t.Errorf("recycled cache holds %d entries, want cap 8 from new config", got)
	}
}

// TestRecyclerIgnoresForeignNodes pins the ownership guard: nodes built
// cold (or by another recycler) pass through Reclaim untouched.
func TestRecyclerIgnoresForeignNodes(t *testing.T) {
	rec := NewRecycler()
	h := newHarness(t, 2, DefaultConfig()) // cold nodes, no recycler
	h.ring()
	rec.Reclaim(h.nodes, nil)
	st := rec.Stats()
	if st.NodesFree != 0 || st.EdgesFree != 0 {
		t.Fatalf("recycler harvested foreign nodes: %+v", st)
	}
	if h.nodes[0].cfg == nil {
		t.Error("foreign node was stripped by Reclaim")
	}
}
