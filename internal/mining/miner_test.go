package mining

import (
	"maps"
	"testing"
	"time"

	"ethmeasure/internal/chain"
	"ethmeasure/internal/consensus"
	"ethmeasure/internal/geo"
	"ethmeasure/internal/p2p"
	"ethmeasure/internal/sim"
	"ethmeasure/internal/simnet"
	"ethmeasure/internal/types"
)

// miningHarness wires a minimal network with pool gateways for miner
// tests.
type miningHarness struct {
	t      *testing.T
	engine *sim.Engine
	reg    *chain.Registry
	issuer *types.HashIssuer
	p2pCfg p2p.Config
	nodes  []*p2p.Node
	txs    map[types.Hash]*types.Transaction
}

func newMiningHarness(t *testing.T, n int) *miningHarness {
	return newMiningHarnessProto(t, n, nil)
}

// newMiningHarnessProto is newMiningHarness under an explicit
// consensus protocol (nil keeps the registry default, ethereum).
func newMiningHarnessProto(t *testing.T, n int, proto consensus.Protocol) *miningHarness {
	t.Helper()
	engine := sim.NewEngine(1)
	net := simnet.New(engine, geo.UniformLatencyModel(10*time.Millisecond, 0))
	issuer := types.NewHashIssuer(1)
	h := &miningHarness{
		t:      t,
		engine: engine,
		reg:    chain.NewRegistry(0, issuer),
		issuer: issuer,
		p2pCfg: p2p.DefaultConfig(),
		txs:    make(map[types.Hash]*types.Transaction),
	}
	if proto != nil {
		h.reg.SetProtocol(proto)
	}
	for i := 0; i < n; i++ {
		endpoint, err := net.AddNode(geo.NorthAmerica, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		h.nodes = append(h.nodes, p2p.NewNode(&h.p2pCfg, net, endpoint, h.reg))
	}
	for i := range h.nodes {
		for j := i + 1; j < len(h.nodes); j++ {
			p2p.Connect(h.nodes[i], h.nodes[j])
		}
	}
	return h
}

func (h *miningHarness) resolver(hash types.Hash) *types.Transaction { return h.txs[hash] }

func (h *miningHarness) addTx(sender types.AccountID, nonce uint64, price uint64) *types.Transaction {
	tx := &types.Transaction{
		Hash:     h.issuer.Next(),
		Sender:   sender,
		Nonce:    nonce,
		GasPrice: price,
		Size:     types.TxSize,
	}
	h.txs[tx.Hash] = tx
	return tx
}

func twoPoolSpecs() []PoolSpec {
	gw := []geo.Region{geo.NorthAmerica}
	return []PoolSpec{
		{Name: "Alpha", Power: 0.7, Gateways: gw},
		{Name: "Beta", Power: 0.3, Gateways: gw},
	}
}

func (h *miningHarness) newMiner(cfg Config, specs []PoolSpec, gateways [][]*p2p.Node) *Miner {
	h.t.Helper()
	m, err := NewMiner(cfg, h.engine, h.reg, specs, gateways, h.issuer, h.resolver)
	if err != nil {
		h.t.Fatal(err)
	}
	return m
}

func TestNewMinerValidation(t *testing.T) {
	h := newMiningHarness(t, 2)
	gw := [][]*p2p.Node{{h.nodes[0]}, {h.nodes[1]}}
	cfg := DefaultConfig()

	if _, err := NewMiner(cfg, h.engine, h.reg, nil, nil, h.issuer, h.resolver); err == nil {
		t.Error("empty specs must error")
	}
	if _, err := NewMiner(cfg, h.engine, h.reg, twoPoolSpecs(), gw[:1], h.issuer, h.resolver); err == nil {
		t.Error("spec/gateway mismatch must error")
	}
	bad := cfg
	bad.InterBlockTime = 0
	if _, err := NewMiner(bad, h.engine, h.reg, twoPoolSpecs(), gw, h.issuer, h.resolver); err == nil {
		t.Error("zero inter-block time must error")
	}
	noGw := twoPoolSpecs()
	if _, err := NewMiner(cfg, h.engine, h.reg, noGw, [][]*p2p.Node{{h.nodes[0]}, nil}, h.issuer, h.resolver); err == nil {
		t.Error("missing gateway nodes must error")
	}
	badSpec := twoPoolSpecs()
	badSpec[0].Power = 2
	if _, err := NewMiner(cfg, h.engine, h.reg, badSpec, gw, h.issuer, h.resolver); err == nil {
		t.Error("invalid spec must error")
	}
}

func TestMinerProducesChain(t *testing.T) {
	h := newMiningHarness(t, 3)
	cfg := DefaultConfig()
	cfg.InterBlockTime = 10 * time.Second
	m := h.newMiner(cfg, twoPoolSpecs(), [][]*p2p.Node{{h.nodes[0]}, {h.nodes[1]}})
	m.Start(20 * time.Minute)
	if _, err := h.engine.Run(20 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if m.Mined() < 60 {
		t.Fatalf("mined %d blocks in 20 virtual minutes", m.Mined())
	}
	main := h.reg.MainChain()
	if len(main) < 50 {
		t.Fatalf("main chain %d blocks", len(main))
	}
	// Power shares: Alpha should clearly dominate Beta.
	counts := map[types.PoolID]int{}
	for _, b := range main[1:] {
		counts[b.Miner]++
	}
	if counts[1] <= counts[2] {
		t.Errorf("pool shares: alpha=%d beta=%d", counts[1], counts[2])
	}
}

func TestMinerEmptyRatePolicy(t *testing.T) {
	h := newMiningHarness(t, 2)
	specs := []PoolSpec{{
		Name:      "AlwaysEmpty",
		Power:     1,
		Gateways:  []geo.Region{geo.NorthAmerica},
		EmptyRate: 1,
	}}
	cfg := DefaultConfig()
	cfg.InterBlockTime = 5 * time.Second
	m := h.newMiner(cfg, specs, [][]*p2p.Node{{h.nodes[0]}})
	// Seed transactions so non-empty blocks would be possible.
	for i := uint64(0); i < 50; i++ {
		m.pools[0].txs.Add(h.addTx(1, i, 10))
	}
	m.Start(5 * time.Minute)
	if _, err := h.engine.Run(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if m.Mined() == 0 {
		t.Fatal("no blocks mined")
	}
	h.reg.Blocks(func(b *types.Block) bool {
		if b.Miner != 0 && !b.Empty() {
			t.Errorf("policy-empty pool mined non-empty block %s", b.Hash)
		}
		return true
	})
	if m.EmptyByPolicy() != m.Mined() {
		t.Errorf("emptyByPolicy = %d of %d", m.EmptyByPolicy(), m.Mined())
	}
}

func TestMinerIncludesTransactionsUpToCapacity(t *testing.T) {
	h := newMiningHarness(t, 2)
	cfg := DefaultConfig()
	cfg.InterBlockTime = 5 * time.Second
	cfg.BlockCapacity = 7
	specs := []PoolSpec{{Name: "Solo", Power: 1, Gateways: []geo.Region{geo.NorthAmerica}}}
	m := h.newMiner(cfg, specs, [][]*p2p.Node{{h.nodes[0]}})
	for i := uint64(0); i < 30; i++ {
		m.pools[0].txs.Add(h.addTx(1, i, 10))
	}
	m.Start(time.Minute)
	if _, err := h.engine.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	sawFull := false
	h.reg.Blocks(func(b *types.Block) bool {
		if len(b.TxHashes) > 7 {
			t.Errorf("block %s carries %d txs, capacity 7", b.Hash, len(b.TxHashes))
		}
		if len(b.TxHashes) == 7 {
			sawFull = true
		}
		return true
	})
	if !sawFull {
		t.Error("no block reached capacity despite a 30-tx backlog")
	}
}

func TestMinerSiblingsProduceOneMinerForks(t *testing.T) {
	h := newMiningHarness(t, 2)
	specs := []PoolSpec{{
		Name:              "Selfish",
		Power:             1,
		Gateways:          []geo.Region{geo.NorthAmerica},
		SiblingRate:       1,
		SiblingSameTxFrac: 1,
	}}
	cfg := DefaultConfig()
	cfg.InterBlockTime = 10 * time.Second
	m := h.newMiner(cfg, specs, [][]*p2p.Node{{h.nodes[0]}})
	m.Start(3 * time.Minute)
	if _, err := h.engine.Run(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if m.Siblings() == 0 {
		t.Fatal("sibling rate 1 produced no siblings")
	}
	// Every sibling creates a same-height same-miner pair.
	byHeight := make(map[uint64]int)
	h.reg.Blocks(func(b *types.Block) bool {
		if b.Miner != 0 {
			byHeight[b.Number]++
		}
		return true
	})
	pairs := 0
	for _, c := range byHeight {
		if c >= 2 {
			pairs++
		}
	}
	if pairs == 0 {
		t.Error("no one-miner forks recorded")
	}
}

// TestSiblingSelectsAgainstItsParent: a sibling with a fresh
// transaction selection builds on its original's parent, so it may
// carry only transactions valid there. The pool's txpool already counts
// the original's transactions as included, so the next nonces of the
// original's senders would leave a gap on the sibling's chain; the
// sibling leaves those senders out and selects from the others.
func TestSiblingSelectsAgainstItsParent(t *testing.T) {
	h := newMiningHarness(t, 2)
	specs := []PoolSpec{{
		Name:              "Solo",
		Power:             1,
		Gateways:          []geo.Region{geo.NorthAmerica},
		SiblingRate:       1,
		SiblingSameTxFrac: 0,
	}}
	cfg := DefaultConfig()
	cfg.InterBlockTime = time.Hour
	cfg.BlockCapacity = 2
	m := h.newMiner(cfg, specs, [][]*p2p.Node{{h.nodes[0]}})
	pool := m.pools[0]
	for nonce := uint64(0); nonce < 4; nonce++ {
		pool.txs.Add(h.addTx(1, nonce, 20)) // the original takes nonces 0 and 1
		pool.txs.Add(h.addTx(2, nonce, 10))
	}
	h.engine.Schedule(0, m.mineOne)
	if _, err := h.engine.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if m.Siblings() == 0 {
		t.Fatal("sibling rate 1 produced no sibling")
	}
	next := map[types.Hash]map[types.AccountID]uint64{h.reg.Genesis().Hash: {}}
	blocks := 0
	h.reg.Blocks(func(b *types.Block) bool {
		if b.Hash == h.reg.Genesis().Hash {
			return true
		}
		blocks++
		nonces := maps.Clone(next[b.ParentHash])
		for _, hash := range b.TxHashes {
			tx := h.txs[hash]
			if tx.Nonce != nonces[tx.Sender] {
				t.Errorf("block %s carries nonce %d of sender %d, next on its parent is %d", b.Hash, tx.Nonce, tx.Sender, nonces[tx.Sender])
			}
			nonces[tx.Sender]++
		}
		if b.Number == 1 && blocks > 1 && (len(b.TxHashes) != 2 || h.txs[b.TxHashes[0]].Sender != 2) {
			t.Errorf("sibling %s carries %d txs, want sender 2's nonces 0 and 1", b.Hash, len(b.TxHashes))
		}
		next[b.Hash] = nonces
		return true
	})
	if blocks < 2 {
		t.Fatalf("%d blocks mined, want an original and its sibling", blocks)
	}
}

func TestMineTupleCreatesSameHeightBlocks(t *testing.T) {
	h := newMiningHarness(t, 2)
	cfg := DefaultConfig()
	cfg.InterBlockTime = time.Hour // keep the regular process quiet
	cfg.TupleEvents = []int{4}
	m := h.newMiner(cfg, twoPoolSpecs(), [][]*p2p.Node{{h.nodes[0]}, {h.nodes[1]}})
	m.Start(30 * time.Minute)
	if _, err := h.engine.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	byKey := make(map[uint64]int)
	var miner types.PoolID
	h.reg.Blocks(func(b *types.Block) bool {
		if b.Miner != 0 {
			byKey[b.Number]++
			miner = b.Miner
		}
		return true
	})
	found := false
	for _, c := range byKey {
		if c == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no 4-tuple found: %v (miner %d)", byKey, miner)
	}
}

func TestMinerUnclesGetReferenced(t *testing.T) {
	h := newMiningHarness(t, 2)
	specs := []PoolSpec{{
		Name:        "Forky",
		Power:       1,
		Gateways:    []geo.Region{geo.NorthAmerica},
		SiblingRate: 1, // every block gets a sibling → constant forks
	}}
	cfg := DefaultConfig()
	cfg.InterBlockTime = 8 * time.Second
	m := h.newMiner(cfg, specs, [][]*p2p.Node{{h.nodes[0]}})
	m.Start(10 * time.Minute)
	if _, err := h.engine.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	refs := 0
	// Each referencing block must satisfy the uncle validity rules.
	for _, b := range h.reg.MainChain() {
		for _, uncle := range b.Uncles {
			refs++
			u := h.reg.MustGet(uncle)
			if u.Number >= b.Number || b.Number-u.Number > h.reg.Protocol().MaxReferenceDepth() {
				t.Errorf("uncle %s at depth %d from %s", uncle, b.Number-u.Number, b.Hash)
			}
		}
	}
	if refs == 0 {
		t.Fatal("siblings were never referenced as uncles")
	}
}

func TestMinerReorgReconcilesTxPool(t *testing.T) {
	h := newMiningHarness(t, 3)
	cfg := DefaultConfig()
	cfg.InterBlockTime = time.Hour // manual control
	cfg.HeadSwitchMean = time.Millisecond
	specs := []PoolSpec{{Name: "Solo", Power: 1, Gateways: []geo.Region{geo.NorthAmerica}}}
	m := h.newMiner(cfg, specs, [][]*p2p.Node{{h.nodes[0]}})
	pool := m.pools[0]

	tx := h.addTx(1, 0, 10)
	pool.txs.Add(tx)

	// A competing miner publishes a block containing our tx; the pool
	// adopts it and marks the tx included.
	g := h.reg.Genesis()
	b1 := &types.Block{
		Hash: h.issuer.Next(), Number: g.Number + 1, ParentHash: g.Hash,
		Miner: 99, TxHashes: []types.Hash{tx.Hash}, Size: types.BlockSize(1),
	}
	if err := h.reg.Add(b1); err != nil {
		t.Fatal(err)
	}
	h.nodes[1].PublishBlock(b1)
	if _, err := h.engine.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Nothing is left to include, and the sender's watermark has passed
	// the tx's nonce, so the pool refuses it as stale.
	if len(pool.txs.Executable(10, nil)) != 0 || pool.txs.Add(tx) {
		t.Fatal("adopted block's tx not marked included")
	}
	if pool.jobHead.Hash != b1.Hash {
		t.Fatalf("job head = %s, want adopted %s", pool.jobHead.Hash, b1.Hash)
	}

	// A heavier branch without the tx replaces it; the tx must return
	// to the pending set.
	c1 := &types.Block{Hash: h.issuer.Next(), Number: g.Number + 1, ParentHash: g.Hash, Miner: 98, Size: types.BlockSize(0)}
	if err := h.reg.Add(c1); err != nil {
		t.Fatal(err)
	}
	c2 := &types.Block{Hash: h.issuer.Next(), Number: c1.Number + 1, ParentHash: c1.Hash, Miner: 98, Size: types.BlockSize(0)}
	if err := h.reg.Add(c2); err != nil {
		t.Fatal(err)
	}
	h.nodes[2].PublishBlock(c1)
	h.nodes[2].PublishBlock(c2)
	if _, err := h.engine.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if pool.jobHead.Hash != c2.Hash {
		t.Fatalf("job head = %s after reorg, want %s", pool.jobHead.Hash, c2.Hash)
	}
	// Executable starts each sender at its watermark, so the tx comes
	// back only if the watermark fell to its nonce.
	if got := pool.txs.Executable(10, nil); len(got) != 1 || got[0] != tx {
		t.Errorf("executable after reorg = %v, want the reverted tx %s", got, tx.Hash)
	}
}
