package mining

import (
	"testing"
	"time"

	"ethmeasure/internal/consensus"
	"ethmeasure/internal/geo"
	"ethmeasure/internal/p2p"
	"ethmeasure/internal/types"
)

func TestWithholdingConsultsRewardSchedule(t *testing.T) {
	blk := func(diff uint64) *types.Block {
		return &types.Block{Hash: types.Hash(diff), TotalDiff: diff}
	}

	// Under Ethereum's schedule a beaten private chain still earns
	// uncle rewards, so the withholder publishes it.
	eth, err := NewWithholding(5)
	if err != nil {
		t.Fatal(err)
	}
	eth.BindProtocol(consensus.Ethereum())
	eth.OnMined(blk(1))
	if burst := eth.OnPublicBlock(blk(2)); len(burst) != 1 {
		t.Fatalf("ethereum withholder released %d blocks, want 1", len(burst))
	}
	if eth.discarded != 0 {
		t.Errorf("ethereum withholder discarded %d blocks", eth.discarded)
	}

	// Under Bitcoin a strictly overtaken private chain is worthless:
	// discard.
	btc, err := NewWithholding(5)
	if err != nil {
		t.Fatal(err)
	}
	btc.BindProtocol(build(t, consensus.BitcoinName))
	btc.OnMined(blk(1))
	if burst := btc.OnPublicBlock(blk(2)); burst != nil {
		t.Fatalf("bitcoin withholder published a beaten chain: %d blocks", len(burst))
	}
	if btc.discarded != 1 || len(btc.private) != 0 {
		t.Errorf("discarded=%d lead=%d, want 1/0", btc.discarded, len(btc.private))
	}

	// A tie is NOT overtaken: the private block can still win the
	// first-seen race at every node it reaches first, so it is
	// published, not discarded (the Eyal-Sirer race branch on Bitcoin).
	tie, err := NewWithholding(5)
	if err != nil {
		t.Fatal(err)
	}
	tie.BindProtocol(build(t, consensus.BitcoinName))
	tie.OnMined(blk(1))
	if burst := tie.OnPublicBlock(blk(1)); len(burst) != 1 {
		t.Fatalf("bitcoin withholder forfeited the tie race: released %d blocks, want 1", len(burst))
	}
	if tie.discarded != 0 {
		t.Errorf("tie race discarded %d blocks", tie.discarded)
	}

	// The race branch survives: a private chain still ahead by one is
	// published to win the fork race, even without reference rewards.
	race, err := NewWithholding(5)
	if err != nil {
		t.Fatal(err)
	}
	race.BindProtocol(build(t, consensus.BitcoinName))
	race.OnMined(blk(5))
	race.OnMined(blk(6))
	if burst := race.OnPublicBlock(blk(5)); len(burst) != 2 {
		t.Fatalf("bitcoin withholder raced with %d blocks, want 2", len(burst))
	}
	if race.discarded != 0 {
		t.Errorf("racing withholder discarded %d blocks", race.discarded)
	}
}

// TestMinerBindsProtocolToStrategy checks the attach path: a strategy
// attached through the miner receives the registry's protocol, and a
// bitcoin miner builds blocks without uncle references end to end.
func TestMinerBindsProtocolToStrategy(t *testing.T) {
	h := newMiningHarnessProto(t, 3, build(t, consensus.BitcoinName))
	specs := []PoolSpec{
		{Name: "Attacker", Power: 0.6, Gateways: []geo.Region{geo.NorthAmerica}},
		{Name: "Honest", Power: 0.4, Gateways: []geo.Region{geo.NorthAmerica}},
	}
	cfg := DefaultConfig()
	cfg.InterBlockTime = 8 * time.Second
	m := h.newMiner(cfg, specs, [][]*p2p.Node{{h.nodes[0]}, {h.nodes[1]}})
	if m.proto.Name() != consensus.BitcoinName {
		t.Fatalf("miner protocol = %q", m.proto.Name())
	}
	w, err := NewWithholding(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AttachStrategy("Attacker", w); err != nil {
		t.Fatal(err)
	}
	if w.proto == nil || w.proto.Name() != consensus.BitcoinName {
		t.Fatal("attach did not bind the miner's protocol")
	}

	m.Start(30 * time.Minute)
	if _, err := h.engine.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if m.Mined() == 0 {
		t.Fatal("no blocks mined")
	}
	h.reg.Blocks(func(b *types.Block) bool {
		if len(b.Uncles) != 0 {
			t.Errorf("bitcoin miner attached %d uncles to %s", len(b.Uncles), b.Hash)
		}
		return true
	})
}

// build returns the named protocol with its default parameters, as a
// campaign's config builds it.
func build(t testing.TB, name string) consensus.Protocol {
	t.Helper()
	p, err := consensus.Build(consensus.Spec{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	return p
}
