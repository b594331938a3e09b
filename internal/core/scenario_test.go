package core

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ethmeasure/internal/geo"
	"ethmeasure/internal/logs"
	"ethmeasure/internal/scenario"
)

// runFingerprinted executes cfg and returns the record and chain
// fingerprints plus the results.
func runFingerprinted(t *testing.T, cfg Config) (string, string, *Results) {
	t.Helper()
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hasher := newRecordHasher()
	campaign.AttachRecorder(hasher)
	res, err := campaign.Run()
	if err != nil {
		t.Fatal(err)
	}
	return hasher.Sum(), chainFingerprint(campaign), res
}

// scenarioConfig composes the given spec strings onto a tiny
// propagation-only campaign.
func scenarioConfig(t *testing.T, specs ...string) Config {
	t.Helper()
	cfg := tinyConfig()
	cfg.EnableTxWorkload = false
	for _, raw := range specs {
		spec, err := scenario.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scenarios = append(cfg.Scenarios, spec)
	}
	return cfg
}

func TestPartitionEndToEnd(t *testing.T) {
	cfg := scenarioConfig(t, "partition:a=EA+SEA,start=2m,dur=3m")
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenarios == nil {
		t.Fatal("no scenario annotation")
	}
	m := res.Scenarios.Metrics
	if m["scenario_partition_severed_links"] == 0 {
		t.Error("partition severed no links")
	}
	if m["scenario_partition_healed"] != 1 {
		t.Error("partition window did not heal")
	}
	// The network must survive the split: blocks still propagate and
	// the chain still grows.
	if res.Propagation.Blocks == 0 || res.Stats.BlocksCreated < 20 {
		t.Errorf("campaign degenerated under partition: %d blocks observed, %d created",
			res.Propagation.Blocks, res.Stats.BlocksCreated)
	}
	if got, want := res.Scenarios.Tags, "partition:a=EA+SEA,dur=3m,start=2m"; len(got) != 1 || got[0] != want {
		t.Errorf("tags = %v, want [%s]", got, want)
	}
}

func TestPartitionRaisesForkRate(t *testing.T) {
	if testing.Short() {
		t.Skip("longer statistical run")
	}
	base := tinyConfig()
	base.Duration = time.Hour
	base.EnableTxWorkload = false
	_, _, resBase := runFingerprinted(t, base)

	// Cut Asia off from the rest for most of the run: pool gateways on
	// the two sides keep mining on diverging heads.
	cut := base
	cut.Scenarios = []scenario.Spec{{
		Name:   scenario.PartitionName,
		Params: map[string]string{"a": "EA+SEA", "start": "5m", "dur": "40m"},
	}}
	_, _, resCut := runFingerprinted(t, cut)

	if resCut.Forks.MainShare >= resBase.Forks.MainShare {
		t.Errorf("partition did not raise fork rate: main share %.4f (cut) vs %.4f (base)",
			resCut.Forks.MainShare, resBase.Forks.MainShare)
	}
}

func TestRelayOverlayEndToEnd(t *testing.T) {
	base := scenarioConfig(t)
	overlay := scenarioConfig(t, "relayoverlay:hubs=2,peers=16")

	campaignBase, err := NewCampaign(base)
	if err != nil {
		t.Fatal(err)
	}
	resBase, err := campaignBase.Run()
	if err != nil {
		t.Fatal(err)
	}
	campaign, err := NewCampaign(overlay)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The hubs joined the network and got wired in.
	if res.Stats.Nodes != resBase.Stats.Nodes+2 {
		t.Errorf("nodes = %d, want base %d + 2 hubs", res.Stats.Nodes, resBase.Stats.Nodes)
	}
	m := res.Scenarios.Metrics
	if m["scenario_relayoverlay_hubs"] != 2 {
		t.Errorf("hubs metric = %v", m["scenario_relayoverlay_hubs"])
	}
	if m["scenario_relayoverlay_links"] == 0 {
		t.Error("relay hubs made no links")
	}
	// Propagation still healthy with the overlay in place.
	if res.Propagation.Blocks == 0 || res.Propagation.MedianMs <= 0 {
		t.Error("no propagation measured with relay overlay")
	}
}

func TestEclipseEndToEnd(t *testing.T) {
	cfg := scenarioConfig(t, "eclipse:node=7,attackers=3")
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The victim's peer set is exactly its attackers before the run.
	var eclipse *scenario.Eclipse
	for _, s := range campaign.Scenarios() {
		if e, ok := s.(*scenario.Eclipse); ok {
			eclipse = e
		}
	}
	if eclipse == nil {
		t.Fatal("eclipse scenario not composed")
	}
	if eclipse.Victim() != 7 {
		t.Errorf("victim = %d, want 7", eclipse.Victim())
	}
	res, err := campaign.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenarios.Metrics["scenario_eclipse_attackers"] != 3 {
		t.Errorf("attackers metric = %v", res.Scenarios.Metrics)
	}
	if res.Propagation.Blocks == 0 {
		t.Error("network degenerated under single-node eclipse")
	}
}

func TestBandwidthAndChurnBurstEndToEnd(t *testing.T) {
	cfg := scenarioConfig(t,
		"bandwidth:regions=EA,factor=0.05,start=2m,dur=3m",
		"churnburst:count=10,start=4m,downtime=30s",
	)
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := res.Scenarios.Metrics
	if m["scenario_bandwidth_nodes_affected"] == 0 {
		t.Error("bandwidth throttle hit no nodes")
	}
	if m["scenario_churnburst_restarts"] != 10 {
		t.Errorf("churnburst restarts = %v, want 10", m["scenario_churnburst_restarts"])
	}
	if len(res.Scenarios.Tags) != 2 {
		t.Errorf("tags = %v", res.Scenarios.Tags)
	}
	if res.Stats.BlocksCreated < 20 {
		t.Errorf("chain stalled: %d blocks", res.Stats.BlocksCreated)
	}
}

// TestComposedScenariosDeterministic: a campaign stacking several
// scenarios reproduces bit-for-bit, and a different seed diverges.
func TestComposedScenariosDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("three full runs; covered by the full suite")
	}
	build := func(seed int64) Config {
		cfg := scenarioConfig(t,
			"relayoverlay",
			"partition:a=EA,start=3m,dur=2m",
			"churnburst:count=5,start=6m",
		)
		cfg.Seed = seed
		return cfg
	}
	recA, chainA, _ := runFingerprinted(t, build(1))
	recB, chainB, _ := runFingerprinted(t, build(1))
	recC, chainC, _ := runFingerprinted(t, build(2))
	if recA != recB || chainA != chainB {
		t.Error("identical composed-scenario configs diverged")
	}
	if recA == recC && chainA == chainC {
		t.Error("different seeds produced identical composed-scenario runs")
	}
}

// TestScenarioKeyMetricsMerged: scenario metrics surface in the
// campaign's KeyMetrics map for sweep aggregation.
func TestScenarioKeyMetricsMerged(t *testing.T) {
	cfg := scenarioConfig(t, "churnburst:count=5,start=2m")
	_, _, res := runFingerprinted(t, cfg)
	km := res.KeyMetrics()
	if km["scenario_churnburst_restarts"] != 5 {
		t.Errorf("KeyMetrics missing scenario entry: %v", km.Names())
	}
}

// TestScenarioTagsInLogMeta: the composed tags travel through the log
// pipeline (WriteLogs and SpillPath both lead with the meta entry).
func TestScenarioTagsInLogMeta(t *testing.T) {
	cfg := scenarioConfig(t, "churn:interval=1m,downtime=1m", "eclipse:node=3")
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Run(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scn.jsonl")
	if err := campaign.WriteLogs(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := logs.ReadCampaignFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Meta.Scenarios) != 2 {
		t.Fatalf("meta scenarios = %v, want churn + eclipse", loaded.Meta.Scenarios)
	}
	if !strings.HasPrefix(loaded.Meta.Scenarios[0], "churn:") || loaded.Meta.Scenarios[1] != "eclipse:node=3" {
		t.Errorf("meta scenarios = %v", loaded.Meta.Scenarios)
	}
}

// TestScenarioValidationErrors: config validation catches unknown
// scenarios and bad parameters before any campaign is built.
func TestScenarioValidationErrors(t *testing.T) {
	for _, raw := range []string{"nope", "partition", "churn:interval=banana"} {
		cfg := tinyConfig()
		spec, err := scenario.Parse(raw)
		if err != nil {
			t.Fatalf("Parse(%q): %v", raw, err)
		}
		cfg.Scenarios = []scenario.Spec{spec}
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate accepted scenario %q", raw)
		}
		if _, err := NewCampaign(cfg); err == nil {
			t.Errorf("NewCampaign accepted scenario %q", raw)
		}
	}
	// Attach-time failure: withhold names a pool that does not exist.
	cfg := tinyConfig()
	cfg.Scenarios = []scenario.Spec{{
		Name:   scenario.WithholdName,
		Params: map[string]string{"pool": "NoSuchPool"},
	}}
	if _, err := NewCampaign(cfg); err == nil {
		t.Error("NewCampaign accepted withholding on unknown pool")
	}
}

// TestPartitionSeversMutatorAddedLinks: a relay hub added by a
// topology mutator must not bridge a later partition — the cut scans
// mutator-added nodes too (Env.Added).
func TestPartitionSeversMutatorAddedLinks(t *testing.T) {
	cfg := scenarioConfig(t,
		"relayoverlay:region=NA,hubs=1,peers=8",
		"partition:a=NA,start=1m", // no heal: the cut persists to the end
	)
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.Run(); err != nil {
		t.Fatal(err)
	}
	if len(campaign.scenarioEnv.Added) != 1 {
		t.Fatalf("added nodes = %d, want the relay hub", len(campaign.scenarioEnv.Added))
	}
	// No churn is composed, so no link can form after the cut: every
	// surviving edge must stay on one side, hub links included.
	crossing := 0
	for _, node := range campaign.scenarioEnv.AllNodes() {
		a := node.Endpoint().Region == geo.NorthAmerica
		for _, peer := range node.Peers() {
			if a != (peer.Endpoint().Region == geo.NorthAmerica) {
				crossing++
			}
		}
	}
	if crossing != 0 {
		t.Errorf("%d edge endpoints still cross the NA cut (relay hub bridged the partition?)", crossing)
	}
}

// TestDuplicateScenarioMetricsKeepOrdinals: two instances of the same
// scenario must not clobber each other's metrics.
func TestDuplicateScenarioMetricsKeepOrdinals(t *testing.T) {
	cfg := scenarioConfig(t,
		"withhold:pool=Ethermine,depth=3",
		"withhold:pool=Sparkpool,depth=4",
	)
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := res.Scenarios.Metrics
	for _, key := range []string{"scenario_withhold1_bursts", "scenario_withhold2_bursts"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metric %s missing; have %v", key, m.Names())
		}
	}
	if _, ok := m["scenario_withhold_bursts"]; ok {
		t.Error("un-numbered key present alongside duplicates")
	}
}

// TestOverlappingBandwidthWindowsRestore: two overlapping throttles on
// the same region must unwind to the original bandwidths.
func TestOverlappingBandwidthWindowsRestore(t *testing.T) {
	cfg := scenarioConfig(t,
		"bandwidth:regions=EA,factor=0.5,start=1m,dur=2m",
		"bandwidth:regions=EA,factor=0.5,start=2m,dur=4m",
	)
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]float64, 0, 32)
	for _, n := range campaign.network.Nodes() {
		if n.Region == geo.EasternAsia {
			before = append(before, n.Bandwidth)
		}
	}
	if _, err := campaign.Run(); err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, n := range campaign.network.Nodes() {
		if n.Region != geo.EasternAsia {
			continue
		}
		if n.Bandwidth != before[i] {
			t.Fatalf("node bandwidth %v != original %v after both windows closed", n.Bandwidth, before[i])
		}
		i++
	}
}
