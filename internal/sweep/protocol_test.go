package sweep

import (
	"context"
	"testing"
	"time"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/core"
)

// protocolSweepBase is a small propagation-only campaign for the
// cross-protocol sweep tests.
func protocolSweepBase() core.Config {
	cfg := core.QuickConfig()
	cfg.Duration = 10 * time.Minute
	cfg.NumNodes = 60
	cfg.OutDegree = 4
	cfg.EnableTxWorkload = false
	for i := range cfg.Vantages {
		if cfg.Vantages[i].Peers > 20 {
			cfg.Vantages[i].Peers = 20
		}
	}
	return cfg
}

func TestProtocolsAxisValidation(t *testing.T) {
	if _, err := Protocols("ethereum", "tendermint"); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := Protocols("ghost-inclusive:decay=2"); err == nil {
		t.Error("invalid parameter accepted")
	}
	ax, err := Protocols("ethereum", "bitcoin", "ghost-inclusive:depth=8")
	if err != nil {
		t.Fatal(err)
	}
	if len(ax.Variants) != 3 || ax.Name != "protocol" {
		t.Fatalf("axis = %+v", ax)
	}
	if ax.Variants[2].Name != "ghost-inclusive:depth=8" {
		t.Fatalf("variant name = %q (want the canonical spec)", ax.Variants[2].Name)
	}
}

// TestProtocolSweepAggregates drives the acceptance shape of
// `ethsweep -protocols "ethereum;bitcoin"`: per-protocol cross-seed
// aggregates, with the bitcoin variant free of uncle metrics and the
// two variants keeping separate fork-resolution profiles.
func TestProtocolSweepAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	axis, err := Protocols("ethereum", "bitcoin")
	if err != nil {
		t.Fatal(err)
	}
	matrix := &Matrix{
		Base:  protocolSweepBase(),
		Seeds: Seeds(1, 2),
		Axes:  []Axis{axis},
	}
	agg, _, err := Sweep(context.Background(), matrix, 2)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Failed != 0 {
		t.Fatalf("%d of %d runs failed: %v", agg.Failed, agg.Runs, agg.Errors)
	}
	byScenario := make(map[string]map[string]MetricSummary)
	for _, sc := range agg.Scenarios {
		metrics := make(map[string]MetricSummary)
		for _, ms := range sc.Metrics {
			metrics[ms.Metric] = ms
		}
		byScenario[sc.Scenario] = metrics
	}
	eth, ok := byScenario["protocol=ethereum"]
	if !ok {
		t.Fatalf("no ethereum aggregate; scenarios: %v", scenarioNames(agg))
	}
	btc, ok := byScenario["protocol=bitcoin"]
	if !ok {
		t.Fatalf("no bitcoin aggregate; scenarios: %v", scenarioNames(agg))
	}
	// Protocol-conditional metrics: the uncle share exists only under
	// reference-paying rules.
	if _, ok := eth[analysis.MetricForkUncleShare]; !ok {
		t.Error("ethereum aggregate lacks the uncle-share metric")
	}
	if _, ok := btc[analysis.MetricForkUncleShare]; ok {
		t.Error("bitcoin aggregate carries the uncle-share metric")
	}
	// Both profiles report a fork rate, aggregated per protocol.
	ethForks, ok := eth[analysis.MetricForkRate]
	if !ok || ethForks.N != 2 {
		t.Fatalf("ethereum fork-rate summary = %+v", ethForks)
	}
	btcForks, ok := btc[analysis.MetricForkRate]
	if !ok || btcForks.N != 2 {
		t.Fatalf("bitcoin fork-rate summary = %+v", btcForks)
	}
	// Bitcoin wastes every fork loser; ethereum recycles most as
	// uncles, so the reward-wasted-share profiles must differ.
	ethWaste := eth[analysis.MetricRewardWastedShare]
	btcWaste := btc[analysis.MetricRewardWastedShare]
	if btcWaste.Mean <= ethWaste.Mean {
		t.Errorf("bitcoin wasted share %.4f not above ethereum's %.4f", btcWaste.Mean, ethWaste.Mean)
	}
}

func scenarioNames(agg *AggregateResult) []string {
	out := make([]string, 0, len(agg.Scenarios))
	for _, sc := range agg.Scenarios {
		out = append(out, sc.Scenario)
	}
	return out
}
