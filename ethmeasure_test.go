package ethmeasure

import (
	"context"
	"strings"
	"testing"
	"time"
)

func smallConfig() Config {
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
	return cfg
}

func TestPublicAPIEndToEnd(t *testing.T) {
	campaign, err := NewCampaign(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	results, err := campaign.RunContext(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	WriteReport(&sb, results)
	out := sb.String()
	for _, want := range []string{
		"Table I", "Figure 1", "Table II", "Figure 2", "Figure 3",
		"Figure 4", "Figure 5", "Figure 6", "Table III",
		"One-miner forks", "Figure 7", "Transaction propagation",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing section %q", want)
		}
	}
}

func TestPublicPoolPresets(t *testing.T) {
	pools := PaperPools()
	if len(pools) != 16 {
		t.Errorf("PaperPools = %d entries", len(pools))
	}
	uniform := UniformGatewayPools()
	if len(uniform) != len(pools) {
		t.Error("uniform pools must mirror the paper population")
	}
	if len(PaperInfrastructure()) != 4 {
		t.Error("PaperInfrastructure must list 4 machines")
	}
}

func TestRegionConstantsExposed(t *testing.T) {
	regions := []Region{
		NorthAmerica, EasternAsia, WesternEurope, CentralEurope,
		EasternEurope, SoutheastAsia, SouthAmerica, Oceania,
	}
	seen := make(map[Region]bool)
	for _, r := range regions {
		if seen[r] {
			t.Fatalf("duplicate region constant %v", r)
		}
		seen[r] = true
	}
}

func TestPresetsExposed(t *testing.T) {
	for name, cfg := range map[string]Config{
		"default": DefaultConfig(),
		"quick":   QuickConfig(),
		"paper":   PaperScaleConfig(),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunSweepFacade(t *testing.T) {
	cfg := smallConfig()
	cfg.Duration = 2 * time.Minute
	cfg.EnableTxWorkload = false
	m := &SweepMatrix{
		Base:  cfg,
		Seeds: SweepSeeds(1, 2),
		Axes:  []SweepAxis{SweepDiscovery(false, true)},
	}
	agg, results, err := RunSweep(context.Background(), m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 || agg.Runs != 4 || agg.Failed != 0 {
		t.Fatalf("sweep = %d results, agg %+v", len(results), agg)
	}
	if len(agg.Scenarios) != 2 {
		t.Fatalf("scenarios = %d", len(agg.Scenarios))
	}
	for _, s := range agg.Scenarios {
		found := false
		for _, met := range s.Metrics {
			if met.Metric == "propagation_median_ms" && met.N == 2 && met.Mean > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("scenario %s lacks propagation summary: %+v", s.Scenario, s.Metrics)
		}
	}

	poolAxis, err := SweepPoolSplits("paper", "equal")
	if err != nil {
		t.Fatal(err)
	}
	churnAxis, err := SweepChurnProfiles("none", "default")
	if err != nil {
		t.Fatal(err)
	}
	nodeAxis := SweepNodes(60, 120)
	if len(poolAxis.Variants) != 2 || len(churnAxis.Variants) != 2 || len(nodeAxis.Variants) != 2 {
		t.Error("axis helpers returned wrong variant counts")
	}
}
