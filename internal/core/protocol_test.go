package core

import (
	"context"
	"testing"
	"time"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/consensus"
	"ethmeasure/internal/types"
)

// bitcoinTinyConfig is the propagation-only tiny campaign under
// Bitcoin-style rules.
func bitcoinTinyConfig() Config {
	cfg := tinyConfig()
	cfg.EnableTxWorkload = false
	cfg.Protocol = consensus.Spec{Name: consensus.BitcoinName}
	return cfg
}

// TestBitcoinCampaignHasNoUncles runs a full campaign under the
// bitcoin protocol and checks the no-reference invariants end to end:
// no block carries uncle references, the fork classifier reports every
// side block unrecognized, the reward accounting pays no uncle or
// nephew rewards, and the protocol-conditional KeyMetrics entries are
// absent.
func TestBitcoinCampaignHasNoUncles(t *testing.T) {
	campaign, err := NewCampaign(bitcoinTinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.RunContext(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Protocol != consensus.BitcoinName {
		t.Fatalf("results tagged %q", res.Protocol)
	}

	reg := campaign.registry
	if reg.Protocol().Name() != consensus.BitcoinName {
		t.Fatalf("registry protocol = %q", reg.Protocol().Name())
	}
	reg.Blocks(func(b *types.Block) bool {
		if len(b.Uncles) != 0 {
			t.Errorf("block %s carries %d uncle references under bitcoin", b.Hash, len(b.Uncles))
		}
		return true
	})

	if res.Forks.References {
		t.Error("fork classifier claims references under bitcoin")
	}
	if res.Forks.RecognizedUncles != 0 {
		t.Errorf("%d recognized uncles under bitcoin", res.Forks.RecognizedUncles)
	}
	if res.Forks.TotalBlocks == res.Forks.MainBlocks {
		t.Error("campaign produced no forks; the assertions above are vacuous")
	}

	if res.Rewards.References {
		t.Error("reward accounting claims references under bitcoin")
	}
	if res.Rewards.UncleETH != 0 || res.Rewards.SiblingUncleETH != 0 {
		t.Errorf("uncle rewards paid under bitcoin: %g/%g", res.Rewards.UncleETH, res.Rewards.SiblingUncleETH)
	}
	// Every side block is pure waste under longest-chain rules.
	side := res.Forks.TotalBlocks - res.Forks.MainBlocks
	if res.Rewards.WastedBlocks != side {
		t.Errorf("wasted %d of %d side blocks", res.Rewards.WastedBlocks, side)
	}
	wantTotal := float64(res.Forks.MainBlocks) * consensus.BitcoinBlockReward
	if res.Rewards.TotalETH != wantTotal {
		t.Errorf("total rewards = %g, want %d blocks x %g", res.Rewards.TotalETH, res.Forks.MainBlocks, consensus.BitcoinBlockReward)
	}

	m := res.KeyMetrics()
	for _, absent := range []string{analysis.MetricForkUncleShare, analysis.MetricRewardUncleShare} {
		if _, ok := m[absent]; ok {
			t.Errorf("bitcoin KeyMetrics carries protocol-conditional entry %s", absent)
		}
	}
	for _, present := range []string{analysis.MetricForkRate, analysis.MetricRewardTotalCoin, analysis.MetricRewardWastedShare} {
		if _, ok := m[present]; !ok {
			t.Errorf("bitcoin KeyMetrics lacks %s", present)
		}
	}
}

// TestEthereumCampaignKeepsUncleMetrics pins the complementary side:
// the default protocol still recognizes uncles and emits the
// conditional metrics.
func TestEthereumCampaignKeepsUncleMetrics(t *testing.T) {
	cfg := tinyConfig()
	cfg.EnableTxWorkload = false
	// Twenty virtual minutes: long enough that the tiny network
	// reliably produces a handful of recognizable uncles.
	cfg.Duration = 20 * time.Minute
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.RunContext(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Forks.References || !res.Rewards.References {
		t.Fatal("ethereum run lost its reference policy")
	}
	if res.Forks.RecognizedUncles == 0 {
		t.Error("ethereum run recognized no uncles")
	}
	m := res.KeyMetrics()
	for _, present := range []string{analysis.MetricForkUncleShare, analysis.MetricRewardUncleShare} {
		if _, ok := m[present]; !ok {
			t.Errorf("ethereum KeyMetrics lacks %s", present)
		}
	}
}

// TestGhostInclusiveRecognizesDeeperUncles runs the ghost-inclusive
// protocol with a deep reference window and verifies it pays
// references Ethereum's 6-generation window could not.
func TestGhostInclusiveRecognizesDeeperUncles(t *testing.T) {
	cfg := tinyConfig()
	cfg.EnableTxWorkload = false
	// Match the uncle-metrics test: a twenty-minute run gives the
	// reference window something to recognize.
	cfg.Duration = 20 * time.Minute
	cfg.Protocol = consensus.Spec{
		Name:   consensus.GhostInclusiveName,
		Params: map[string]string{"depth": "12", "cap": "4", "decay": "0.6"},
	}
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.RunContext(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Forks.References {
		t.Fatal("ghost-inclusive run lost its reference policy")
	}
	if res.Forks.RecognizedUncles == 0 {
		t.Error("ghost-inclusive run recognized no uncles")
	}
	if res.Rewards.UncleETH <= 0 {
		t.Error("ghost-inclusive run paid no reference rewards")
	}
	if tag := res.Protocol; tag != "ghost-inclusive:cap=4,decay=0.6,depth=12" {
		t.Errorf("canonical protocol tag = %q", tag)
	}
}

// TestProtocolDeterminism: equal seeds give equal runs under
// non-default protocols too.
func TestProtocolDeterminism(t *testing.T) {
	run := func() (string, string) {
		campaign, err := NewCampaign(bitcoinTinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		hasher := newRecordHasher()
		campaign.bus.Attach(hasher)
		if _, err := campaign.RunContext(context.Background(), RunOptions{}); err != nil {
			t.Fatal(err)
		}
		return hasher.Sum(), chainFingerprint(campaign)
	}
	rec1, chain1 := run()
	rec2, chain2 := run()
	if rec1 != rec2 || chain1 != chain2 {
		t.Fatal("bitcoin campaigns with equal seeds diverged")
	}
}

// TestProtocolNativeIntervalDefault: leaving the mining interval unset
// adopts the protocol's native target and re-derives the block
// capacity for it, so a hand-built tx-enabled config does not mine
// zero-capacity blocks.
func TestProtocolNativeIntervalDefault(t *testing.T) {
	cfg := bitcoinTinyConfig()
	cfg.EnableTxWorkload = true
	cfg.Mining.InterBlockTime = 0
	cfg.Mining.BlockCapacity = 0
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := campaign.dataset.InterBlock; got != consensus.BitcoinTargetInterval {
		t.Fatalf("inter-block time = %v, want the protocol's native %v", got, consensus.BitcoinTargetInterval)
	}
	if got := campaign.cfg.Mining.BlockCapacity; got <= 1 {
		t.Fatalf("block capacity = %d, want re-derived for the adopted interval", got)
	}
	// An explicit capacity survives the interval adoption.
	cfg2 := bitcoinTinyConfig()
	cfg2.Mining.InterBlockTime = 0
	cfg2.Mining.BlockCapacity = 42
	campaign2, err := NewCampaign(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if got := campaign2.cfg.Mining.BlockCapacity; got != 42 {
		t.Fatalf("explicit block capacity overwritten: %d", got)
	}
}

// TestValidateRejectsUnknownProtocol: config validation fails fast on
// unregistered protocols and bad parameters.
func TestValidateRejectsUnknownProtocol(t *testing.T) {
	cfg := tinyConfig()
	cfg.Protocol = consensus.Spec{Name: "tendermint"}
	if _, err := NewCampaign(cfg); err == nil {
		t.Error("unknown protocol accepted")
	}
	cfg = tinyConfig()
	cfg.Protocol = consensus.Spec{Name: consensus.GhostInclusiveName, Params: map[string]string{"depth": "-1"}}
	if _, err := NewCampaign(cfg); err == nil {
		t.Error("invalid protocol parameter accepted")
	}
}
