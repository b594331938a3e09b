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

// TestHashSetSlidesWithoutAllocating: a full FIFO cache fed sequential
// ids (the issuer pattern) evicts and re-bases its bitmap in place, so
// steady-state Adds allocate nothing.
func TestHashSetSlidesWithoutAllocating(t *testing.T) {
	s := newHashSet(4096)
	h := types.Hash(uint64(2)<<48 + 1)
	add := func() {
		if !s.Add(h) {
			t.Fatalf("fresh hash %v reported known", h)
		}
		h++
	}
	for i := 0; i < 100_000; i++ {
		add()
	}
	if allocs := testing.AllocsPerRun(100_000, add); allocs != 0 {
		t.Fatalf("steady-state Add allocated %.4f times per call, want 0", allocs)
	}
	if s.Len() != 4096 {
		t.Fatalf("Len = %d, want 4096", s.Len())
	}
}

// TestNewEdgeHoldsNoSetStorage: the two known-block caches of a fresh
// edge live inside the Edge and hold no storage until a hash crosses
// the link, so building an edge is exactly one allocation.
func TestNewEdgeHoldsNoSetStorage(t *testing.T) {
	engine := sim.NewEngine(1)
	net := simnet.New(engine, geo.DefaultLatencyModel())
	reg := chain.NewRegistry(0, types.NewHashIssuer(1))
	cfg := DefaultConfig()
	var nodes [2]*Node
	for i := range nodes {
		ep, err := net.AddNode(geo.WesternEurope, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = NewNode(&cfg, net, ep, reg)
	}
	var e *Edge
	if allocs := testing.AllocsPerRun(10, func() { e = newEdge(nodes[0], nodes[1]) }); allocs != 1 {
		t.Fatalf("newEdge made %.0f allocations, want 1 (the Edge itself)", allocs)
	}
	for _, s := range []*hashSet{&e.aKnownBlocks, &e.bKnownBlocks} {
		if cap(s.ring) != 0 || s.Len() != 0 || s.set.Len() != 0 {
			t.Fatalf("fresh edge cache holds storage: ring cap %d, %d members", cap(s.ring), s.set.Len())
		}
	}
	if e.aKnownBlocks.capacity != cfg.KnownBlocksPerPeer || e.bKnownBlocks.capacity != cfg.KnownBlocksPerPeer {
		t.Fatal("fresh edge caches not sized from the config")
	}
}
