package ethmeasure

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
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
}

// TestPresetsExposed: the facade's one preset validates; the other
// presets are reached through core.Configure by the commands.
func TestPresetsExposed(t *testing.T) {
	cfg := QuickConfig()
	if err := cfg.Validate(); err != nil {
		t.Error(err)
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
}

// TestFacadeExports pins the facade's exported names: what cmd/ and
// examples/ use, plus the types their signatures name. Growing the
// public API takes a deliberate edit here and in README's "Library
// API" paragraph.
func TestFacadeExports(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "ethmeasure.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	add := func(id *ast.Ident) {
		if id.IsExported() {
			got = append(got, id.Name)
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				add(d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name)
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add(id)
					}
				}
			}
		}
	}
	slices.Sort(got)
	want := []string{
		"AnalyzeSequences", "Campaign", "Config", "DefaultHistory",
		"ExpectedSequences", "FastWinners", "HistoricalEpoch",
		"HistoricalSequenceCounts", "HistoricalWinners", "NewCampaign",
		"PaperPools", "ParseProtocol", "ParseScenario", "PoolID",
		"PoolSpec", "ProtocolSpec", "QuickConfig", "Results",
		"RunOptions", "RunProgress", "RunSweep", "ScenarioSpec",
		"SequencesResult", "SweepAggregate", "SweepAxis",
		"SweepDiscovery", "SweepMatrix", "SweepRunResult", "SweepSeeds",
		"UniformGatewayPools", "WriteReport", "WriteSequences",
	}
	if !slices.Equal(got, want) {
		t.Errorf("facade exports\n%q\nwant\n%q", got, want)
	}
}
