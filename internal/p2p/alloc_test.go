package p2p

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"ethmeasure/internal/chain"
	"ethmeasure/internal/geo"
	"ethmeasure/internal/sim"
	"ethmeasure/internal/simnet"
	"ethmeasure/internal/types"
)

// TestTxRelayZeroAllocsSteadyState pins the protocol's volume path:
// once the engine and the flood pool are warm, submitting and relaying
// transactions through the full stack (p2p flood -> simnet transmit ->
// engine slab -> first sighting -> flood recycling) performs zero
// allocations. The transaction workload dominates event counts in
// every campaign, so this is the budget that keeps 5,000-node runs off
// the GC.
func TestTxRelayZeroAllocsSteadyState(t *testing.T) {
	engine := sim.NewEngine(1)
	net := simnet.New(engine, geo.DefaultLatencyModel())
	reg := chain.NewRegistry(0, types.NewHashIssuer(1))
	cfg := DefaultConfig()

	var nodes []*Node
	for i := 0; i < 3; i++ {
		ep, err := net.AddNode(geo.NorthAmerica, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, NewNode(&cfg, net, ep, reg))
	}
	Connect(nodes[0], nodes[1])
	Connect(nodes[1], nodes[2])

	// Every submission is a fresh transaction, created up front so the
	// measured region allocates no transaction objects: 320 warm-up
	// batches, then AllocsPerRun's warm-up call and 100 measured ones.
	const warmBatches, perBatch = 320, 64
	txs := make([]*types.Transaction, (warmBatches+101)*perBatch)
	for i := range txs {
		txs[i] = &types.Transaction{Hash: types.Hash(uint64(9)<<48 + uint64(i) + 1), Size: 110}
	}
	next := 0
	batch := func() {
		for i := 0; i < perBatch; i++ {
			nodes[0].SubmitTx(txs[next])
			next++
		}
		if _, err := engine.Run(engine.Now() + time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the engine slab past its high-water mark, the flood pool,
	// and the ladder queue's rungs and chunk pool across the bucket
	// layouts the batches hit as virtual time advances.
	for i := 0; i < warmBatches; i++ {
		batch()
	}

	allocs := testing.AllocsPerRun(100, batch)
	if allocs != 0 {
		t.Fatalf("steady-state tx relay allocated %.1f times per 64-tx batch, want 0", allocs)
	}
}

// TestFreshTxFloodsAllocateNothing: nodes keep no per-transaction
// state, so after a single warm-up flood has sized the flood pool and
// the engine, flooding 2 000 fresh transactions one after another
// through 200 nodes at the default config allocates not one byte.
func TestFreshTxFloodsAllocateNothing(t *testing.T) {
	engine := sim.NewEngine(1)
	net := simnet.New(engine, geo.DefaultLatencyModel())
	reg := chain.NewRegistry(0, types.NewHashIssuer(1))
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	regions := geo.AllRegions()
	nodes := make([]*Node, 200)
	for i := range nodes {
		ep, err := net.AddNode(regions[rng.Intn(len(regions))], 1e7)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = NewNode(&cfg, net, ep, reg)
	}
	if err := BuildRandomTopology(rng, nodes, 6); err != nil {
		t.Fatal(err)
	}
	issuer := types.NewHashIssuer(2)
	txs := make([]*types.Transaction, 1+2000)
	for i := range txs {
		txs[i] = &types.Transaction{Hash: issuer.Next(), Size: types.TxSize}
	}
	flood := func(i int) {
		nodes[i%len(nodes)].SubmitTx(txs[i])
		if _, err := engine.Run(engine.Now() + time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	flood(0)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i < len(txs); i++ {
		flood(i)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got != 0 {
		t.Fatalf("flooding 2000 fresh txs allocated %d bytes in %d allocations, want 0",
			got, after.Mallocs-before.Mallocs)
	}
	if got, want := engine.EventsRun(), uint64(len(txs)*(len(nodes)-1)); got != want {
		t.Fatalf("ran %d events, want one per node reached after each origin (%d)", got, want)
	}
}

// TestKnownTableAllocatesAtMostTwice: one node relays 5 ×
// KnownBlocksPerPeer sequential blocks over its links, each block
// running the table steps of a relay (handleBlock's mark on the arrival
// link, pushBlock's lookup and tests, sendBlock's marks, announceBlock's
// claim with test-and-set). The table is allocated at the first block,
// small, and grown once to its capacity when a block's residue passes
// it; relaying allocates nothing from then on, and the table tracks
// exactly capacity blocks, never more.
func TestKnownTableAllocatesAtMostTwice(t *testing.T) {
	h := newHarness(t, 9, DefaultConfig())
	n := h.nodes[0]
	for _, p := range h.nodes[1:] {
		Connect(n, p)
	}
	k := &n.known
	if k.rows != nil {
		t.Fatal("table allocated before the first block")
	}
	b := types.Hash(uint64(1)<<48 + 1)
	relay := func() {
		k.mark(b, n.links[int(b)%len(n.links)].slot)
		r := k.find(b)
		for i, l := range n.links {
			if !k.has(r, l.slot) && i%3 == 0 {
				k.mark(b, l.slot)
			}
		}
		r = k.claim(b)
		for _, l := range n.links {
			if !k.has(r, l.slot) {
				k.set(r, l.slot)
			}
		}
		b++
	}
	capacity := h.cfg.KnownBlocksPerPeer
	// Mallocs is process-wide: one P keeps other goroutines from
	// allocating inside the window, as testing.AllocsPerRun does.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	relay()
	if k.rows == nil || int(k.nrows) >= capacity {
		t.Fatalf("first block: %d of %d rows allocated, want a small table", k.nrows, capacity)
	}
	for range capacity - 1 {
		relay()
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > 2 {
		t.Fatalf("the first %d blocks allocated %d times, want at most 2", capacity, got)
	}
	rows := &k.rows[0]
	if allocs := testing.AllocsPerRun(4*capacity, relay); allocs != 0 {
		t.Fatalf("relaying allocated %.4f times per block once the table was full size, want 0", allocs)
	}
	if &k.rows[0] != rows || int(k.nrows) != capacity || len(k.rows) != capacity*k.rowLen() {
		t.Fatalf("table re-laid: %d words for %d rows of %d", len(k.rows), k.nrows, k.rowLen())
	}
	tracked := 0
	for r := 0; r < len(k.rows); r += k.rowLen() {
		if k.rows[r] != 0 {
			tracked++
		}
	}
	if tracked != capacity {
		t.Fatalf("table tracks %d blocks, want its capacity %d", tracked, capacity)
	}
}

// TestConnectHoldsNoSetStorage: a link is one value at each end
// naming the peer and both ends' slots, a torn-down link's slot goes
// to the next link under a new generation, and a linked node holds no
// known-block table before its first block.
func TestConnectHoldsNoSetStorage(t *testing.T) {
	h := newHarness(t, 3, DefaultConfig())
	a, b, c := h.nodes[0], h.nodes[1], h.nodes[2]
	Connect(a, b)
	Connect(b, c)
	if a.links[0] != (link{peer: b.ID(), slot: 0, peerSlot: 0}) || b.links[0] != (link{peer: a.ID(), slot: 0, peerSlot: 0}) {
		t.Fatalf("a–b link ends %+v / %+v", a.links[0], b.links[0])
	}
	if c.links[0] != (link{peer: b.ID(), slot: 0, peerSlot: 1}) {
		t.Fatalf("c's end of b–c: %+v", c.links[0])
	}
	old := b.known.handle(0)
	Disconnect(a, b)
	Connect(c, a)
	if got := b.links; len(got) != 1 || got[0] != (link{peer: c.ID(), slot: 1, peerSlot: 0}) {
		t.Fatalf("b's links after a–b went: %+v", got)
	}
	Connect(b, a)
	if l := b.links[1]; l.slot != 0 || b.known.resolve(old) != -1 || b.known.resolve(b.known.handle(0)) != 0 {
		t.Fatalf("re-dialled link %+v: stale handle resolves to %d, fresh to %d", l, b.known.resolve(old), b.known.resolve(b.known.handle(0)))
	}
	for _, n := range h.nodes {
		if n.known.rows != nil || int(n.known.capacity) != h.cfg.KnownBlocksPerPeer {
			t.Fatalf("fresh node: table of %d words, capacity %d; want none, capacity %d",
				len(n.known.rows), n.known.capacity, h.cfg.KnownBlocksPerPeer)
		}
	}
}
