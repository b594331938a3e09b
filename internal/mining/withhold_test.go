package mining

import (
	"testing"
	"time"

	"ethmeasure/internal/consensus"
	"ethmeasure/internal/geo"
	"ethmeasure/internal/p2p"
	"ethmeasure/internal/types"
)

// attachWithholding binds a fresh withholding strategy of the given
// depth to the named pool.
func attachWithholding(m *Miner, pool string, depth int) error {
	w, err := NewWithholding(depth)
	if err != nil {
		return err
	}
	return m.AttachStrategy(pool, w)
}

func TestConfigureWithholding(t *testing.T) {
	h := newMiningHarness(t, 2)
	cfg := DefaultConfig()
	m := h.newMiner(cfg, twoPoolSpecs(), [][]*p2p.Node{{h.nodes[0]}, {h.nodes[1]}})
	if attachWithholding(m, "NoSuchPool", 3) == nil {
		t.Error("unknown pool accepted")
	}
	if attachWithholding(m, "Alpha", 1) == nil {
		t.Error("depth < 2 accepted")
	}
	if err := attachWithholding(m, "Alpha", 3); err != nil {
		t.Errorf("valid configuration rejected: %v", err)
	}
	if attachWithholding(m, "Alpha", 3) == nil {
		t.Error("second strategy on one pool accepted")
	}
}

func TestWithholdingPublishesInBursts(t *testing.T) {
	h := newMiningHarness(t, 3)
	// A dominant withholding pool and a small honest competitor.
	specs := []PoolSpec{
		{Name: "Attacker", Power: 0.6, Gateways: []geo.Region{geo.NorthAmerica}},
		{Name: "Honest", Power: 0.4, Gateways: []geo.Region{geo.NorthAmerica}},
	}
	cfg := DefaultConfig()
	cfg.InterBlockTime = 8 * time.Second
	m := h.newMiner(cfg, specs, [][]*p2p.Node{{h.nodes[0]}, {h.nodes[1]}})
	if err := attachWithholding(m, "Attacker", 3); err != nil {
		t.Fatal(err)
	}
	m.Start(20 * time.Minute)
	if _, err := h.engine.Run(20 * time.Minute); err != nil {
		t.Fatal(err)
	}

	// The observer node (2) must have received attacker blocks in
	// height-consecutive groups: find any attacker block whose parent
	// is also an attacker block — private-chain extension.
	sawPrivateChains := false
	h.reg.Blocks(func(b *types.Block) bool {
		if b.Miner != 1 {
			return true
		}
		parent, ok := h.reg.Get(b.ParentHash)
		if ok && parent.Miner == 1 {
			sawPrivateChains = true
		}
		return true
	})
	if !sawPrivateChains {
		t.Error("withholding pool never extended its own private chain")
	}
	// The run must end with the withheld queue bounded by the depth.
	if m.Withheld() >= 3 {
		t.Errorf("withheld lead %d never flushed", m.Withheld())
	}
	// The network still converges: the honest observer's head is a
	// recent block.
	head := h.nodes[2].View().Head()
	if head.Number < h.reg.Head().Number-3 {
		t.Errorf("observer head %d lags registry head %d", head.Number, h.reg.Head().Number)
	}
}

func TestWithholdingOverridesPublicProgress(t *testing.T) {
	h := newMiningHarness(t, 3)
	specs := []PoolSpec{
		{Name: "Attacker", Power: 0.7, Gateways: []geo.Region{geo.NorthAmerica}},
		{Name: "Honest", Power: 0.3, Gateways: []geo.Region{geo.NorthAmerica}},
	}
	cfg := DefaultConfig()
	cfg.InterBlockTime = time.Hour // manual block injection below
	m := h.newMiner(cfg, specs, [][]*p2p.Node{{h.nodes[0]}, {h.nodes[1]}})
	if err := attachWithholding(m, "Attacker", 10); err != nil {
		t.Fatal(err)
	}
	attacker := m.pools[0]
	honest := m.pools[1]

	// Attacker privately mines two blocks.
	g := h.reg.Genesis()
	b1 := m.buildBlock(attacker, g, true, nil)
	if !m.maybeIntercept(attacker, b1) {
		t.Fatal("block not intercepted")
	}
	b2 := m.buildBlock(attacker, b1, true, nil)
	if !m.maybeIntercept(attacker, b2) {
		t.Fatal("second block not intercepted")
	}
	if m.Withheld() != 2 {
		t.Fatalf("withheld = %d", m.Withheld())
	}

	// The honest pool publishes a public block at height 1: within one
	// of the private tip → the attacker must flush both blocks.
	hb := m.buildBlock(honest, g, true, nil)
	m.publish(honest, hb, true)
	if _, err := h.engine.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if m.Withheld() != 0 {
		t.Errorf("withheld = %d after public threat, want flush", m.Withheld())
	}
	// The attacker's chain wins on the observer.
	if got := h.nodes[2].View().Head().Hash; got != b2.Hash {
		t.Errorf("observer head = %s, want attacker tip %s", got, b2.Hash)
	}
}

// TestWithholdingTxPoolFollowsPrivateTip: a withholding pool selects
// transactions against its private chain, so its next private block
// takes the next transaction instead of repeating one, and a private
// chain it discards returns its transactions to the pool.
func TestWithholdingTxPoolFollowsPrivateTip(t *testing.T) {
	h := newMiningHarnessProto(t, 3, build(t, consensus.BitcoinName))
	specs := []PoolSpec{
		{Name: "Attacker", Power: 0.6, Gateways: []geo.Region{geo.NorthAmerica}},
		{Name: "Honest", Power: 0.4, Gateways: []geo.Region{geo.NorthAmerica}},
	}
	cfg := DefaultConfig()
	cfg.InterBlockTime = time.Hour // manual block injection below
	cfg.BlockCapacity = 1
	m := h.newMiner(cfg, specs, [][]*p2p.Node{{h.nodes[0]}, {h.nodes[1]}})
	w, err := NewWithholding(10)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AttachStrategy("Attacker", w); err != nil {
		t.Fatal(err)
	}
	attacker, honest := m.pools[0], m.pools[1]
	tx0, tx1 := h.addTx(1, 0, 10), h.addTx(1, 1, 10)
	attacker.txs.Add(tx0)
	attacker.txs.Add(tx1)

	g := h.reg.Genesis()
	b1 := m.buildBlock(attacker, g, false, nil)
	m.maybeIntercept(attacker, b1)
	b2 := m.buildBlock(attacker, b1, false, nil)
	m.maybeIntercept(attacker, b2)
	if len(b1.TxHashes) != 1 || b1.TxHashes[0] != tx0.Hash || len(b2.TxHashes) != 1 || b2.TxHashes[0] != tx1.Hash {
		t.Fatalf("private blocks carry %v and %v, want [%s] and [%s]", b1.TxHashes, b2.TxHashes, tx0.Hash, tx1.Hash)
	}

	// The honest chain reaches height 3 with only its last block
	// announced to the miner: under bitcoin rules the overtaken private
	// chain is discarded.
	parent := g
	for i := 0; i < 2; i++ {
		b := m.buildBlock(honest, parent, true, nil)
		if err := h.reg.Add(b); err != nil {
			t.Fatal(err)
		}
		parent = b
	}
	m.publish(honest, m.buildBlock(honest, parent, true, nil), true)
	if w.discarded != 2 || m.Withheld() != 0 {
		t.Fatalf("discarded %d, withheld %d; want 2 and 0", w.discarded, m.Withheld())
	}
	// Executable starts the sender at its watermark: both txs return
	// only if the discard rolled the watermark back to nonce 0.
	if got := attacker.txs.Executable(10, nil); len(got) != 2 || got[0] != tx0 || got[1] != tx1 {
		t.Errorf("executable after the discard = %v, want the discarded chain's %s and %s", got, tx0.Hash, tx1.Hash)
	}
}

// Withheld returns how many blocks are currently private across all
// withholding strategies (diagnostics).
func (m *Miner) Withheld() int {
	n := 0
	for _, p := range m.pools {
		if w, ok := p.strategy.(*Withholding); ok {
			n += len(w.private)
		}
	}
	return n
}
