package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"ethmeasure/internal/consensus"
	"ethmeasure/internal/geo"
	"ethmeasure/internal/p2p"
	"ethmeasure/internal/scenario"
)

func TestPresetsValidate(t *testing.T) {
	for name, cfg := range map[string]Config{
		"default": DefaultConfig(),
		"quick":   QuickConfig(),
		"paper":   PaperScaleConfig(),
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s preset invalid: %v", name, err)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"too few nodes", func(c *Config) { c.NumNodes = 5 }},
		{"bad out-degree", func(c *Config) { c.OutDegree = 0 }},
		{"degree >= nodes", func(c *Config) { c.OutDegree = c.NumNodes }},
		{"zero node bandwidth", func(c *Config) { c.NodeBandwidth = 0 }},
		{"zero gateway bandwidth", func(c *Config) { c.GatewayBandwidth = 0 }},
		{"nil latency", func(c *Config) { c.Latency = nil }},
		{"nil node distribution", func(c *Config) { c.NodeDistribution = nil }},
		{"no pools", func(c *Config) { c.Pools = nil }},
		{"invalid pool", func(c *Config) { c.Pools[0].Power = 5 }},
		{"no vantages", func(c *Config) { c.Vantages = nil }},
		{"unnamed vantage", func(c *Config) { c.Vantages[0].Name = "" }},
		{"duplicate vantage", func(c *Config) { c.Vantages[1].Name = c.Vantages[0].Name }},
		{"zero vantage peers", func(c *Config) { c.Vantages[0].Peers = 0 }},
		{"bad vantage region", func(c *Config) { c.Vantages[0].Region = geo.Region(0) }},
		{"unknown redundancy vantage", func(c *Config) { c.RedundancyVantage = "nope" }},
		{"tx workload without rate", func(c *Config) { c.TxGen.Rate = 0 }},
		{"NaN tx rate", func(c *Config) { c.TxGen.Rate = math.NaN() }},
		{"infinite tx rate", func(c *Config) { c.TxGen.Rate = math.Inf(1); ApplyCapacity(c) }},
		{"infinite tx rate, workload off", func(c *Config) { c.TxGen.Rate = math.Inf(1); c.EnableTxWorkload = false }},
		{"tx workload without senders", func(c *Config) { c.SenderDistribution = nil }},
	}
	for _, tt := range mutations {
		cfg := DefaultConfig()
		tt.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", tt.name)
		}
	}
}

// floatFields returns the path of every float64 field reachable from v
// through struct fields and slice elements (pointers are shared models,
// not config), e.g. "Pools[0].Power".
func floatFields(v reflect.Value, path string) []string {
	switch v.Kind() {
	case reflect.Float64:
		return []string{path}
	case reflect.Struct:
		var out []string
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if path != "" {
				name = path + "." + name
			}
			out = append(out, floatFields(v.Field(i), name)...)
		}
		return out
	case reflect.Slice:
		var out []string
		for i := 0; i < v.Len(); i++ {
			out = append(out, floatFields(v.Index(i), fmt.Sprintf("%s[%d]", path, i))...)
		}
		return out
	}
	return nil
}

// fieldAt resolves a floatFields path in v.
func fieldAt(v reflect.Value, path string) reflect.Value {
	for _, part := range strings.Split(path, ".") {
		name, index, indexed := strings.Cut(part, "[")
		v = v.FieldByName(name)
		if indexed {
			i, err := strconv.Atoi(strings.TrimSuffix(index, "]"))
			if err != nil {
				panic(err)
			}
			v = v.Index(i)
		}
	}
	return v
}

// TestValidateRejectsNonFiniteFloats sets every float64 field of the
// Config tree, found by reflection so that a new field cannot skip the
// rule, to NaN and ±Inf in turn: Validate and NewCampaign must reject
// each, and the error must name the field.
func TestValidateRejectsNonFiniteFloats(t *testing.T) {
	base := QuickConfig()
	paths := floatFields(reflect.ValueOf(base), "")
	for _, want := range []string{"NodeBandwidth", "P2P.ImportJitter", "Pools[0].Power", "TxGen.Rate", "Clock.P10ms"} {
		if !slices.Contains(paths, want) {
			t.Fatalf("the walk missed %s: found %v", want, paths)
		}
	}
	for _, path := range paths {
		name := path[strings.LastIndex(path, ".")+1:]
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := QuickConfig()
			fieldAt(reflect.ValueOf(&cfg).Elem(), path).SetFloat(bad)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s = %g: Validate() = %v, want an error naming %s", path, bad, err, name)
			}
			if _, err := NewCampaign(cfg); err == nil {
				t.Errorf("%s = %g: NewCampaign accepted it", path, bad)
			}
		}
	}
}

// TestValidateRejectsOutOfRangeFloats covers the finite values that
// have no meaning: non-positive processing speeds, an inverted speed
// range and probabilities outside [0, 1].
func TestValidateRejectsOutOfRangeFloats(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"VantageProcSpeed", func(c *Config) { c.VantageProcSpeed = 0 }},
		{"GatewayProcSpeed", func(c *Config) { c.GatewayProcSpeed = -1 }},
		{"NodeProcSpeedMin", func(c *Config) { c.NodeProcSpeedMin = -0.5 }},
		{"NodeProcSpeedMax", func(c *Config) { c.NodeProcSpeedMax = c.NodeProcSpeedMin / 2 }},
		{"VantageGatewayFraction", func(c *Config) { c.VantageGatewayFraction = 1.5 }},
		{"VantageGatewayFraction", func(c *Config) { c.VantageGatewayFraction = -0.1 }},
		{"Clock.P10ms", func(c *Config) { c.Clock.P10ms = -0.1 }},
		{"Clock.P100ms", func(c *Config) { c.Clock.P100ms = 2 }},
	}
	for _, tt := range tests {
		cfg := QuickConfig()
		tt.mutate(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tt.name) {
			t.Errorf("%s: Validate() = %v, want an error naming it", tt.name, err)
		}
	}
	// The edges are legal: a single node speed, fractions of 0 and 1.
	cfg := QuickConfig()
	cfg.NodeProcSpeedMax = cfg.NodeProcSpeedMin
	cfg.VantageGatewayFraction, cfg.Clock.P10ms, cfg.Clock.P100ms = 0, 0, 1
	if err := cfg.Validate(); err != nil {
		t.Errorf("edge values rejected: %v", err)
	}
}

// TestValidateRejectsRecordRetention checks that the removed
// RetainRecords option fails and points at SpillPath.
func TestValidateRejectsRecordRetention(t *testing.T) {
	cfg := QuickConfig()
	cfg.RetainRecords = true
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "SpillPath") {
		t.Errorf("Validate() = %v, want an error naming SpillPath", err)
	}
}

func TestValidateRejectsNegativeP2PTimings(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*p2p.Config)
	}{
		{"ArriveTimeout", func(c *p2p.Config) { c.ArriveTimeout = -time.Millisecond }},
		{"GatherSlack", func(c *p2p.Config) { c.GatherSlack = -time.Millisecond }},
		{"HeaderCheckMean", func(c *p2p.Config) { c.HeaderCheckMean = -time.Millisecond }},
		{"ImportBase", func(c *p2p.Config) { c.ImportBase = -time.Millisecond }},
		{"ImportPerTx", func(c *p2p.Config) { c.ImportPerTx = -time.Millisecond }},
		{"ImportJitter", func(c *p2p.Config) { c.ImportJitter = -0.1 }},
	}
	for _, tt := range tests {
		cfg := DefaultConfig()
		tt.mutate(&cfg.P2P)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tt.name) {
			t.Errorf("negative %s: Validate() = %v, want an error naming it", tt.name, err)
		}
	}
	// Zero is a legal value for every one of them.
	cfg := DefaultConfig()
	cfg.P2P.ArriveTimeout, cfg.P2P.GatherSlack, cfg.P2P.HeaderCheckMean = 0, 0, 0
	cfg.P2P.ImportBase, cfg.P2P.ImportPerTx, cfg.P2P.ImportJitter = 0, 0, 0
	if err := cfg.Validate(); err != nil {
		t.Errorf("zero P2P timings rejected: %v", err)
	}
}

func TestValidateAllowsDisabledTxWorkload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EnableTxWorkload = false
	cfg.TxGen.Rate = 0
	cfg.SenderDistribution = nil
	if err := cfg.Validate(); err != nil {
		t.Errorf("disabled workload should not require tx settings: %v", err)
	}
}

// TestConfigure checks the preset-plus-overrides path field by field:
// a zero override keeps the preset's value, a positive one replaces it,
// and a negative value, a bad spec or an invalid result is rejected
// with an error naming the cause.
func TestConfigure(t *testing.T) {
	quick := QuickConfig()
	if got, err := Configure("quick", Overrides{}); err != nil || !reflect.DeepEqual(got, quick) {
		t.Fatalf("zero overrides: err %v, config differs from the quick preset", err)
	}

	accepted := []struct {
		name string
		o    Overrides
		want func(*Config)
	}{
		{"duration", Overrides{Duration: 7 * time.Minute}, func(c *Config) { c.Duration = 7 * time.Minute }},
		{"nodes", Overrides{Nodes: 60}, func(c *Config) { c.NumNodes = 60 }},
		{"txrate", Overrides{TxRate: 2}, func(c *Config) { c.TxGen.Rate = 2; ApplyCapacity(c) }},
		{"no-tx", Overrides{NoTx: true}, func(c *Config) { c.EnableTxWorkload = false }},
		{"protocol", Overrides{Protocol: "bitcoin"}, func(c *Config) { c.Protocol = consensus.Spec{Name: "bitcoin"} }},
		{"scenarios", Overrides{Scenarios: []string{"relayoverlay", "churn:interval=90s"}}, func(c *Config) {
			c.Scenarios = []scenario.Spec{
				{Name: "relayoverlay"},
				{Name: "churn", Params: map[string]string{"interval": "90s"}},
			}
		}},
	}
	for _, tc := range accepted {
		want := QuickConfig()
		tc.want(&want)
		got, err := Configure("quick", tc.o)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: config differs from the preset with only that field changed", tc.name)
		}
	}
	if c, _ := Configure("quick", Overrides{TxRate: 2}); c.Mining.BlockCapacity == quick.Mining.BlockCapacity {
		t.Error("txrate override did not re-derive the block capacity")
	}

	rejected := []struct {
		name   string
		preset string
		o      Overrides
		frag   string
	}{
		{"unknown preset", "huge", Overrides{}, "unknown preset"},
		{"negative duration", "quick", Overrides{Duration: -time.Minute}, "duration"},
		{"negative nodes", "quick", Overrides{Nodes: -5}, "nodes"},
		{"negative txrate", "quick", Overrides{TxRate: -0.5}, "txrate"},
		{"NaN txrate", "quick", Overrides{TxRate: math.NaN()}, "txrate must be a finite number, got NaN"},
		{"infinite txrate", "quick", Overrides{TxRate: math.Inf(1)}, "txrate must be a finite number, got +Inf"},
		{"negative infinite txrate", "quick", Overrides{TxRate: math.Inf(-1)}, "txrate must be a finite number, got -Inf"},
		{"NaN scenario float", "quick", Overrides{Scenarios: []string{"bandwidth:regions=EA+SEA+NA+WE+CE,factor=NaN"}}, `parameter factor: "NaN" is not a finite number`},
		{"NaN protocol float", "quick", Overrides{Protocol: "ghost-inclusive:decay=NaN"}, `parameter decay: "NaN" is not a finite number`},
		{"bad protocol name", "quick", Overrides{Protocol: "pow2"}, "unknown protocol"},
		{"bad protocol param", "quick", Overrides{Protocol: "ethereum:gravity=9"}, "unknown parameter"},
		{"bad protocol syntax", "quick", Overrides{Protocol: "bitcoin:reward"}, "want key=val"},
		{"bad scenario name", "quick", Overrides{Scenarios: []string{"mayhem"}}, "unknown scenario"},
		{"bad scenario param", "quick", Overrides{Scenarios: []string{"eclipse:attackers=0"}}, "attacker"},
		{"invalid result", "quick", Overrides{Nodes: 5}, "at least 10 nodes"},
	}
	for _, tc := range rejected {
		if _, err := Configure(tc.preset, tc.o); err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: err = %v, want fragment %q", tc.name, err, tc.frag)
		}
	}
}

func TestDeriveBlockCapacity(t *testing.T) {
	// 8.2 tx/s × 13.3s / 0.8 ≈ 137.
	got := DeriveBlockCapacity(8.2, 13300*time.Millisecond, 0.8)
	if got < 136 || got > 138 {
		t.Errorf("capacity = %d, want ≈137", got)
	}
	if DeriveBlockCapacity(0, time.Second, 0.8) != 1 {
		t.Error("degenerate inputs must floor at 1")
	}
	if DeriveBlockCapacity(0.001, 13300*time.Millisecond, 0.8) != 1 {
		t.Error("tiny rates must floor at 1")
	}
}

func TestApplyCapacitySetsFloor(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Mining.BlockCapacity <= 0 {
		t.Fatal("capacity not derived")
	}
	if cfg.TxGen.MempoolFloor != cfg.Mining.BlockCapacity*3/2 {
		t.Errorf("floor = %d for capacity %d", cfg.TxGen.MempoolFloor, cfg.Mining.BlockCapacity)
	}
}

func TestPoolNames(t *testing.T) {
	cfg := DefaultConfig()
	names := cfg.PoolNames()
	if len(names) != len(cfg.Pools) {
		t.Fatalf("names = %d", len(names))
	}
	if names[0] != "Ethermine" {
		t.Errorf("names[0] = %q", names[0])
	}
}

func TestPresetScalesDiffer(t *testing.T) {
	q, d, p := QuickConfig(), DefaultConfig(), PaperScaleConfig()
	if !(q.NumNodes < d.NumNodes && d.NumNodes < p.NumNodes) {
		t.Error("node counts should grow quick < default < paper")
	}
	if !(q.Duration < d.Duration && d.Duration < p.Duration) {
		t.Error("durations should grow quick < default < paper")
	}
	if p.Duration != 30*24*time.Hour {
		t.Errorf("paper duration = %v, want one month", p.Duration)
	}
}

func TestDefaultConfigMatchesPaperSetup(t *testing.T) {
	cfg := DefaultConfig()
	// Four primary vantages in the paper's regions + the default-peers
	// subsidiary node.
	primary := 0
	var aux *VantageSpec
	for i := range cfg.Vantages {
		if cfg.Vantages[i].Auxiliary {
			aux = &cfg.Vantages[i]
			continue
		}
		primary++
	}
	if primary != 4 {
		t.Errorf("primary vantages = %d, want 4", primary)
	}
	if aux == nil || aux.Peers != 25 {
		t.Error("subsidiary redundancy node must run Geth's default 25 peers")
	}
	if cfg.RedundancyVantage != aux.Name {
		t.Error("redundancy analysis must target the subsidiary node")
	}
	if cfg.Mining.InterBlockTime != 13300*time.Millisecond {
		t.Errorf("inter-block time = %v, paper measured 13.3s", cfg.Mining.InterBlockTime)
	}
	if cfg.GenesisNumber != 7_479_573 {
		t.Errorf("genesis = %d, paper campaign started at 7,479,573", cfg.GenesisNumber)
	}
}

func TestLogMetaReflectsConfig(t *testing.T) {
	cfg := QuickConfig()
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	meta := campaign.logMeta()
	if len(meta.Vantages) != 4 {
		t.Errorf("meta vantages = %v (auxiliary must be excluded)", meta.Vantages)
	}
	if meta.RedundancyVantage != "WE-default" {
		t.Errorf("redundancy vantage = %q", meta.RedundancyVantage)
	}
	if len(meta.PoolNames) != len(cfg.Pools) {
		t.Errorf("pool names = %d", len(meta.PoolNames))
	}
	if meta.NetworkSize <= cfg.NumNodes {
		t.Errorf("network size %d should include gateways and vantages", meta.NetworkSize)
	}
	if meta.Seed != cfg.Seed || meta.DurationNs != int64(cfg.Duration) {
		t.Error("meta timing fields wrong")
	}
}

// TestShardedAutoResolve pins the shards shim that perfbench still
// uses: Shards 0 and 1 validate and resolve to the one engine, the
// campaign reports no sharded coordinator, and any other count is
// rejected with the reason.
func TestShardedAutoResolve(t *testing.T) {
	cfg := tinyConfig()
	for _, shards := range []int{0, 1} {
		cfg.Shards = shards
		if got := cfg.ResolveShards(); got != 1 {
			t.Errorf("Shards=%d: ResolveShards() = %d, want 1", shards, got)
		}
		c, err := NewCampaign(cfg)
		if err != nil {
			t.Fatalf("Shards=%d: %v", shards, err)
		}
		if c.Sharded() != nil {
			t.Errorf("Shards=%d: Sharded() = %v, want nil", shards, c.Sharded())
		}
	}
	for _, shards := range []int{-1, 2, 8} {
		cfg.Shards = shards
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "sharded engine was removed") {
			t.Errorf("Shards=%d: Validate() = %v, want the sharded engine named as removed", shards, err)
		}
	}
}
