package sweep

import (
	"reflect"
	"testing"
	"time"

	"ethmeasure/internal/core"
	"ethmeasure/internal/scenario"
)

func TestSeeds(t *testing.T) {
	got := Seeds(10, 3)
	want := []int64{10, 11, 12}
	if len(got) != len(want) {
		t.Fatalf("Seeds(10,3) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Seeds(10,3) = %v, want %v", got, want)
		}
	}
}

func TestMatrixPureSeedSweep(t *testing.T) {
	m := &Matrix{Base: core.QuickConfig(), Seeds: Seeds(1, 4)}
	runs, err := m.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 || m.NumRuns() != 4 {
		t.Fatalf("expected 4 runs, got %d (NumRuns %d)", len(runs), m.NumRuns())
	}
	for i, r := range runs {
		if r.Index != i {
			t.Errorf("run %d has index %d", i, r.Index)
		}
		if r.Scenario != "base" {
			t.Errorf("run %d scenario = %q, want base", i, r.Scenario)
		}
		if r.Seed != int64(i+1) || r.Config.Seed != r.Seed {
			t.Errorf("run %d seed = %d (config %d)", i, r.Seed, r.Config.Seed)
		}
	}
}

func TestMatrixCartesianExpansion(t *testing.T) {
	m := &Matrix{
		Base:  core.QuickConfig(),
		Seeds: Seeds(1, 2),
		Axes: []Axis{
			Nodes(60, 120),
			Discovery(false, true),
		},
	}
	runs, err := m.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 8 {
		t.Fatalf("2 nodes x 2 discovery x 2 seeds = 8, got %d", len(runs))
	}
	// First axis varies slowest, seeds fastest.
	wantScenarios := []string{
		"nodes=60,discovery=off", "nodes=60,discovery=off",
		"nodes=60,discovery=on", "nodes=60,discovery=on",
		"nodes=120,discovery=off", "nodes=120,discovery=off",
		"nodes=120,discovery=on", "nodes=120,discovery=on",
	}
	for i, r := range runs {
		if r.Scenario != wantScenarios[i] {
			t.Errorf("run %d scenario = %q, want %q", i, r.Scenario, wantScenarios[i])
		}
	}
	if runs[0].Config.NumNodes != 60 || runs[4].Config.NumNodes != 120 {
		t.Error("nodes axis not applied")
	}
	if runs[0].Config.UseDiscovery || !runs[2].Config.UseDiscovery {
		t.Error("discovery axis not applied")
	}
	// The base config must stay untouched.
	if m.Base.NumNodes != core.QuickConfig().NumNodes {
		t.Error("matrix expansion mutated the base config")
	}
}

func TestMatrixValidatesExpandedConfigs(t *testing.T) {
	m := &Matrix{
		Base: core.QuickConfig(),
		Axes: []Axis{Nodes(5)}, // below the 10-node minimum
	}
	if _, err := m.Runs(); err == nil {
		t.Fatal("invalid expanded config accepted")
	}
}

func TestMatrixRejectsMalformedAxes(t *testing.T) {
	base := core.QuickConfig()
	cases := []Matrix{
		{Base: base, Axes: []Axis{{Name: "", Variants: Nodes(60).Variants}}},
		{Base: base, Axes: []Axis{{Name: "empty"}}},
		{Base: base, Axes: []Axis{Nodes(60, 60)}},                                 // duplicate variant names
		{Base: base, Axes: []Axis{{Name: "x", Variants: []Variant{{Name: "a"}}}}}, // nil Apply
	}
	for i := range cases {
		if _, err := cases[i].Runs(); err == nil {
			t.Errorf("case %d: malformed axis accepted", i)
		}
	}
}

func TestPoolSplits(t *testing.T) {
	ax, err := PoolSplits(PoolSplitPaper, PoolSplitUniform, PoolSplitEqual, PoolSplitMajority)
	if err != nil {
		t.Fatal(err)
	}
	if len(ax.Variants) != 4 {
		t.Fatalf("variants = %d", len(ax.Variants))
	}
	sum := func(cfg *core.Config) float64 {
		total := 0.0
		for _, p := range cfg.Pools {
			total += p.Power
		}
		return total
	}
	for _, v := range ax.Variants {
		cfg := core.QuickConfig()
		v.Apply(&cfg)
		if s := sum(&cfg); s < 0.99 || s > 1.01 {
			t.Errorf("split %s: powers sum to %f", v.Name, s)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("split %s: %v", v.Name, err)
		}
	}

	cfg := core.QuickConfig()
	ax.Variants[3].Apply(&cfg) // majority
	if cfg.Pools[0].Power != 0.51 {
		t.Errorf("majority split top power = %f", cfg.Pools[0].Power)
	}
	cfg = core.QuickConfig()
	ax.Variants[2].Apply(&cfg) // equal
	if cfg.Pools[0].Power != cfg.Pools[len(cfg.Pools)-1].Power {
		t.Error("equal split powers differ")
	}

	if _, err := PoolSplits("bogus"); err == nil {
		t.Fatal("unknown pool split accepted")
	}
}

func TestChurnProfiles(t *testing.T) {
	ax, err := ChurnProfiles(ChurnNone, ChurnDefault, ChurnHeavy)
	if err != nil {
		t.Fatal(err)
	}
	// The tags are the run annotations results and log metadata carry;
	// pinning them literally keeps every churn sweep's output stable.
	want := [][]string{
		nil,
		{"churn:downtime=5m0s,interval=2m0s"},
		{"churn:downtime=5m0s,interval=30s"},
	}
	base := core.QuickConfig()
	for i, v := range ax.Variants {
		cfg := base
		v.Apply(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", v.Name, err)
		}
		if got := scenario.Tags(cfg.Scenarios); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s: scenario tags = %q, want %q", v.Name, got, want[i])
		}
	}
	if len(base.Scenarios) != 0 {
		t.Error("Apply mutated the shared base config")
	}
	if _, err := ChurnProfiles("bogus"); err == nil {
		t.Fatal("unknown churn profile accepted")
	}
}

// TestChurnAxisComposesFirst: a churn profile crossed with a Scenarios
// axis composes churn before the other scenario whichever axis is
// declared first, so tags (and the run itself) do not depend on axis
// order.
func TestChurnAxisComposesFirst(t *testing.T) {
	churn, err := ChurnProfiles(ChurnHeavy)
	if err != nil {
		t.Fatal(err)
	}
	scen, err := Scenarios("relayoverlay")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"churn:downtime=5m0s,interval=30s", "relayoverlay"}
	for _, axes := range [][]Axis{{churn, scen}, {scen, churn}} {
		m := &Matrix{Base: core.QuickConfig(), Axes: axes}
		runs, err := m.Runs()
		if err != nil {
			t.Fatal(err)
		}
		if len(runs) != 1 {
			t.Fatalf("runs = %d, want 1", len(runs))
		}
		if got := scenario.Tags(runs[0].Config.Scenarios); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: scenario tags = %q, want %q", runs[0].Scenario, got, want)
		}
	}
}

func TestTxRatesRederivesCapacity(t *testing.T) {
	ax := TxRates(0.5, 2)
	a, b := core.QuickConfig(), core.QuickConfig()
	ax.Variants[0].Apply(&a)
	ax.Variants[1].Apply(&b)
	if a.TxGen.Rate != 0.5 || b.TxGen.Rate != 2 {
		t.Fatal("rates not applied")
	}
	if b.Mining.BlockCapacity <= a.Mining.BlockCapacity {
		t.Errorf("capacity did not scale with rate: %d vs %d",
			a.Mining.BlockCapacity, b.Mining.BlockCapacity)
	}
	if a.TxGen.MempoolFloor != a.Mining.BlockCapacity*3/2 {
		t.Error("mempool floor not re-derived")
	}
}

func TestDurationsAxis(t *testing.T) {
	ax := Durations(10*time.Minute, time.Hour)
	if ax.Variants[0].Name != "10m0s" || ax.Variants[1].Name != "1h0m0s" {
		t.Errorf("variant names = %q, %q", ax.Variants[0].Name, ax.Variants[1].Name)
	}
	cfg := core.QuickConfig()
	ax.Variants[1].Apply(&cfg)
	if cfg.Duration != time.Hour {
		t.Error("duration not applied")
	}
}

func TestScenariosAxis(t *testing.T) {
	ax, err := Scenarios("none", "partition:a=EA,start=2m,dur=2m", "relayoverlay")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Name != "scenario" || len(ax.Variants) != 3 {
		t.Fatalf("axis = %+v", ax)
	}
	if ax.Variants[0].Name != ScenarioVariantNone {
		t.Errorf("variant 0 = %q", ax.Variants[0].Name)
	}
	if ax.Variants[1].Name != "partition:a=EA,dur=2m,start=2m" {
		t.Errorf("variant 1 = %q (want canonical spec)", ax.Variants[1].Name)
	}

	base := core.QuickConfig()
	none, part := base, base
	ax.Variants[0].Apply(&none)
	ax.Variants[1].Apply(&part)
	if len(none.Scenarios) != 0 {
		t.Error("'none' variant composed a scenario")
	}
	if len(part.Scenarios) != 1 || part.Scenarios[0].Name != "partition" {
		t.Errorf("partition variant scenarios = %+v", part.Scenarios)
	}
	if len(base.Scenarios) != 0 {
		t.Error("Apply mutated the shared base config")
	}
}

func TestScenariosAxisValidatesSpecs(t *testing.T) {
	if _, err := Scenarios("no-such-scenario"); err == nil {
		t.Fatal("unknown scenario accepted")
	}
	if _, err := Scenarios("partition"); err == nil {
		t.Fatal("partition without region set accepted")
	}
	if _, err := Scenarios("churn:interval=banana"); err == nil {
		t.Fatal("malformed parameter accepted")
	}
}

func TestScenarioAxisExpandsIntoMatrix(t *testing.T) {
	ax, err := Scenarios("none", "eclipse:node=3")
	if err != nil {
		t.Fatal(err)
	}
	m := &Matrix{Base: core.QuickConfig(), Seeds: Seeds(1, 2), Axes: []Axis{ax}}
	runs, err := m.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 4 {
		t.Fatalf("runs = %d, want 4", len(runs))
	}
	if runs[0].Scenario != "scenario=none" || runs[2].Scenario != "scenario=eclipse:node=3" {
		t.Errorf("scenario labels = %q, %q", runs[0].Scenario, runs[2].Scenario)
	}
	if len(runs[2].Config.Scenarios) != 1 {
		t.Error("expanded run lost its scenario spec")
	}
}
