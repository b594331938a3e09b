// Package core orchestrates full measurement campaigns: it builds the
// simulated network, deploys the instrumented vantage nodes, runs the
// mining and transaction workloads on the discrete-event engine, and
// feeds the collected records through every analyzer — the end-to-end
// equivalent of the paper's one-month deployment plus offline pandas
// pipeline.
package core

import (
	"fmt"
	"math"
	"time"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/consensus"
	"ethmeasure/internal/geo"
	"ethmeasure/internal/measure"
	"ethmeasure/internal/mining"
	"ethmeasure/internal/p2p"
	"ethmeasure/internal/scenario"
	"ethmeasure/internal/txgen"
)

// VantageSpec places one measurement node.
type VantageSpec struct {
	// Name labels the vantage in records and reports ("EA", "NA", ...).
	Name string
	// Region is where the machine sits.
	Region geo.Region
	// Peers is how many peers the instrumented node connects to. The
	// paper's main nodes used "unlimited" (>100); the subsidiary
	// redundancy node used Geth's default of 25.
	Peers int
	// Auxiliary marks vantages excluded from the first-observation and
	// delay analyses (the paper's default-peers redundancy node ran as
	// a separate subsidiary measurement).
	Auxiliary bool
}

// Config fully describes a campaign. The zero value is not usable;
// start from DefaultConfig or a preset.
type Config struct {
	// Seed drives every random stream; equal seeds give equal runs.
	Seed int64

	// Duration is the virtual campaign length (the paper ran one month).
	Duration time.Duration

	// GenesisNumber is the starting block height (paper: 7,479,573).
	GenesisNumber uint64

	// NumNodes is the regular (non-gateway, non-vantage) node count.
	NumNodes int

	// OutDegree is each regular node's dial count (mean degree ≈ 2x).
	OutDegree int

	// Shards is kept only for perfbench, which sets it to 1: 0 and 1
	// are accepted and anything else fails Validate, because the
	// sharded engine was removed. Delete it, with ResolveShards and
	// Campaign.Sharded, in the next change to the benchmark.
	Shards int

	// UseDiscovery selects the Kademlia-style discovery overlay for
	// neighbour selection instead of the plain random graph. Both are
	// geography-blind (paper §III-B1); discovery exercises the actual
	// devp2p ID-space machinery at some topology-construction cost.
	UseDiscovery bool

	// NodeBandwidth is a regular node's bandwidth in bytes/second.
	NodeBandwidth float64

	// GatewayBandwidth is a pool gateway's bandwidth in bytes/second.
	GatewayBandwidth float64

	// VantageBandwidth reflects the measurement machines' backbone
	// links (paper Table I: 8-10 Gbps).
	VantageBandwidth float64

	// GatewayPeers is how many peers each pool gateway maintains.
	GatewayPeers int

	// VantageGatewayFraction is the fraction of pool gateways each
	// primary vantage peers with directly. Nodes with very high peer
	// counts end up adjacent to pool infrastructure in practice; this
	// adjacency is what exposes the gateway geography in Figures 2/3.
	VantageGatewayFraction float64

	// VantageProcSpeed scales the vantage machines' processing delays
	// (< 1: Table I hardware is well above minimum spec).
	VantageProcSpeed float64

	// GatewayProcSpeed scales pool gateway processing delays.
	GatewayProcSpeed float64

	// NodeProcSpeedMin/Max bound regular nodes' processing-speed
	// factors (sampled uniformly): the public network mixes hardware
	// classes, and slower importers announce later.
	NodeProcSpeedMin float64
	NodeProcSpeedMax float64

	// Latency is the inter-region delay model.
	Latency *geo.LatencyModel

	// NodeDistribution spreads regular nodes across regions.
	NodeDistribution *geo.Distribution

	// SenderDistribution spreads transaction senders across regions.
	SenderDistribution *geo.Distribution

	// Vantages are the measurement nodes (paper: NA, EA, WE, CE).
	Vantages []VantageSpec

	// RedundancyVantage names the vantage used for Table II (the
	// default-peers subsidiary node). Empty disables that analysis.
	RedundancyVantage string

	// P2P is the wire-protocol configuration.
	P2P p2p.Config

	// Mining configures block production.
	Mining mining.Config

	// Protocol selects the consensus rule set the chain runs under:
	// fork choice, reference (uncle) policy, reward schedule
	// (internal/consensus). The zero value is the ethereum protocol —
	// the paper's rules, and the only behaviour that existed before
	// protocols became pluggable. When Mining.InterBlockTime is left
	// zero, the protocol's native target interval applies; the presets
	// set Ethereum's 13.3 s explicitly so cross-protocol comparisons
	// run at equal block rates unless deliberately changed.
	Protocol consensus.Spec

	// Pools is the mining-pool population.
	Pools []mining.PoolSpec

	// TxGen configures the transaction workload.
	TxGen txgen.Config

	// EnableTxWorkload toggles transaction generation. Propagation-only
	// experiments disable it to save simulation time.
	EnableTxWorkload bool

	// Scenarios composes registered interventions into the campaign:
	// each spec names a plugin from internal/scenario ("partition",
	// "relayoverlay", "eclipse", "bandwidth", "churnburst", "churn",
	// "withhold") plus its parameters. Scenarios apply in list order
	// after the base system is built; an empty list is the vanilla
	// campaign.
	Scenarios []scenario.Spec

	// Clock is the NTP offset model for vantage timestamps.
	Clock measure.ClockModel

	// RetainRecords is kept only for perfbench, which sets it to false:
	// true fails Validate, because a campaign keeps no raw records in
	// memory. Its records reach the analysis collector and, when
	// SpillPath is set, the ethlog, which holds them bit for bit. Delete
	// it, with Shards, in the next change to the benchmark.
	RetainRecords bool

	// SpillPath, when non-empty, streams every raw record to a binary
	// ethlog campaign log at this path as it is produced (metadata
	// first, chain dump appended at the end of the run). It is the one
	// way a campaign writes a log; cmd/ethanalyze reads it and
	// ethanalyze -convert exports it as JSON Lines.
	SpillPath string
}

// DefaultConfig returns a laptop-scale campaign that preserves the
// paper's mechanisms: a few hundred nodes, the paper's pool
// population, the four vantage points plus the default-peers
// redundancy node, and a two-hour virtual run.
func DefaultConfig() Config {
	cfg := Config{
		Seed:                   1,
		Duration:               2 * time.Hour,
		GenesisNumber:          7_479_573,
		NumNodes:               220,
		OutDegree:              8,
		NodeBandwidth:          12.5e6, // 100 Mbit/s
		GatewayBandwidth:       125e6,  // 1 Gbit/s
		VantageBandwidth:       1.25e9, // 10 Gbit/s (Table I backbone)
		GatewayPeers:           24,
		VantageGatewayFraction: 1.0,
		VantageProcSpeed:       1.0,
		GatewayProcSpeed:       0.5,
		NodeProcSpeedMin:       0.4,
		NodeProcSpeedMax:       3.0,
		Latency:                geo.SharedDefaultLatencyModel(),
		NodeDistribution:       geo.GlobalNodeDistribution(),
		SenderDistribution:     geo.GlobalSenderDistribution(),
		Vantages: []VantageSpec{
			{Name: "NA", Region: geo.NorthAmerica, Peers: 80},
			{Name: "EA", Region: geo.EasternAsia, Peers: 80},
			{Name: "WE", Region: geo.WesternEurope, Peers: 80},
			{Name: "CE", Region: geo.CentralEurope, Peers: 80},
			{Name: "WE-default", Region: geo.WesternEurope, Peers: 25, Auxiliary: true},
		},
		RedundancyVantage: "WE-default",
		P2P:               p2p.DefaultConfig(),
		Mining:            mining.DefaultConfig(),
		Pools:             mining.PaperPools(),
		TxGen:             txgen.DefaultConfig(),
		EnableTxWorkload:  true,
		Clock:             measure.DefaultClockModel(),
	}
	ApplyCapacity(&cfg)
	return cfg
}

// ApplyCapacity derives the block capacity from the effective workload
// rate at the paper's ~80% utilization and sizes the mempool floor so
// pools never run dry (mainnet's mempool always held a reservoir of
// cheap pending transactions). Call it after changing TxGen.Rate or
// Mining.InterBlockTime so the capacity stays consistent with the
// workload (the presets, CLI overrides and sweep axes all do).
func ApplyCapacity(cfg *Config) {
	cfg.Mining.BlockCapacity = DeriveBlockCapacity(cfg.TxGen.EffectiveRate(), cfg.Mining.InterBlockTime, 0.8)
	cfg.TxGen.MempoolFloor = cfg.Mining.BlockCapacity * 3 / 2
}

// QuickConfig returns a small configuration for tests and examples:
// ~30 virtual minutes over ~120 nodes.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.Duration = 30 * time.Minute
	cfg.NumNodes = 120
	cfg.OutDegree = 6
	for i := range cfg.Vantages {
		if cfg.Vantages[i].Peers > 40 {
			cfg.Vantages[i].Peers = 40
		}
	}
	cfg.TxGen.Rate = 0.5
	cfg.TxGen.NumAccounts = 400
	ApplyCapacity(&cfg)
	return cfg
}

// PaperScaleConfig approximates the paper's real campaign dimensions:
// a month of virtual time and a large network. Running it takes hours
// of CPU and tens of GB of memory; the cmd/ethmeasure tool exposes it
// behind an explicit flag.
func PaperScaleConfig() Config {
	cfg := DefaultConfig()
	cfg.Duration = 30 * 24 * time.Hour
	cfg.NumNodes = 2000
	cfg.OutDegree = 12
	// Rate is the arrival-event rate, not the tx rate: EffectiveRate()
	// is ≈ 12.9 tx/s, about 1.5× the paper's 21.96M txs in one month
	// (8.47 tx/s). Recalibrating it changes the model (ROADMAP 1(d)).
	cfg.TxGen.Rate = 8.2
	cfg.TxGen.NumAccounts = 50_000
	ApplyCapacity(&cfg)
	return cfg
}

// Preset returns the named configuration preset: "quick"
// (QuickConfig), "default" (DefaultConfig) or "paper"
// (PaperScaleConfig).
func Preset(name string) (Config, error) {
	switch name {
	case "quick":
		return QuickConfig(), nil
	case "default":
		return DefaultConfig(), nil
	case "paper":
		return PaperScaleConfig(), nil
	}
	return Config{}, fmt.Errorf("unknown preset %q (quick, default or paper)", name)
}

// Overrides are the user adjustments a front end (ethmeasure, ethsweep,
// ethserve) applies on top of a preset. A zero field keeps the preset's
// value; a negative one is an error. The seed is not among them: its
// zero means different things to different front ends, so each sets
// Config.Seed itself.
type Overrides struct {
	// Duration overrides the virtual campaign length.
	Duration time.Duration
	// Nodes overrides the regular node count.
	Nodes int
	// TxRate overrides the transaction rate (tx/s); the block capacity
	// is re-derived from it.
	TxRate float64
	// NoTx disables the transaction workload.
	NoTx bool
	// Protocol is a consensus spec, "name[:key=val,...]".
	Protocol string
	// Scenarios are scenario specs composed in order.
	Scenarios []string
}

// Configure returns the named preset with the overrides applied and
// the result validated: the one path from user input to a Config.
func Configure(preset string, o Overrides) (Config, error) {
	switch {
	case o.Duration < 0:
		return Config{}, fmt.Errorf("duration must be non-negative, got %v", o.Duration)
	case o.Nodes < 0:
		return Config{}, fmt.Errorf("nodes must be non-negative, got %d", o.Nodes)
	case math.IsNaN(o.TxRate) || math.IsInf(o.TxRate, 0):
		return Config{}, fmt.Errorf("txrate must be a finite number, got %g", o.TxRate)
	case o.TxRate < 0:
		return Config{}, fmt.Errorf("txrate must be non-negative, got %g", o.TxRate)
	}
	cfg, err := Preset(preset)
	if err != nil {
		return Config{}, err
	}
	if o.Duration > 0 {
		cfg.Duration = o.Duration
	}
	if o.Nodes > 0 {
		cfg.NumNodes = o.Nodes
	}
	if o.TxRate > 0 {
		cfg.TxGen.Rate = o.TxRate
		ApplyCapacity(&cfg)
	}
	if o.NoTx {
		cfg.EnableTxWorkload = false
	}
	if o.Protocol != "" {
		spec, err := consensus.Parse(o.Protocol)
		if err != nil {
			return Config{}, err
		}
		cfg.Protocol = spec
	}
	for _, raw := range o.Scenarios {
		spec, err := scenario.Parse(raw)
		if err != nil {
			return Config{}, err
		}
		cfg.Scenarios = append(cfg.Scenarios, spec)
	}
	// Validate checks the specs against the catalogs along with the
	// rest of the config.
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// DeriveBlockCapacity sizes blocks so that steady-state utilization
// matches the target (the paper observed blocks ~80% full, §III-C3).
func DeriveBlockCapacity(txRate float64, interBlock time.Duration, utilization float64) int {
	if txRate <= 0 || interBlock <= 0 || utilization <= 0 {
		return 1
	}
	capacity := int(math.Ceil(txRate * interBlock.Seconds() / utilization))
	if capacity < 1 {
		capacity = 1
	}
	return capacity
}

// Validate checks the configuration for inconsistencies.
func (c *Config) Validate() error {
	if c.Duration <= 0 {
		return fmt.Errorf("core: duration must be positive")
	}
	if c.NumNodes < 10 {
		return fmt.Errorf("core: need at least 10 nodes, got %d", c.NumNodes)
	}
	if c.OutDegree < 1 || c.OutDegree >= c.NumNodes {
		return fmt.Errorf("core: out-degree %d out of range", c.OutDegree)
	}
	if c.Shards < 0 || c.Shards > 1 {
		return fmt.Errorf("core: shards = %d: the sharded engine was removed; campaigns run on one engine", c.Shards)
	}
	if c.RetainRecords {
		return fmt.Errorf("core: RetainRecords was removed; set SpillPath to keep a campaign's raw records in its ethlog")
	}
	// Every float must be finite before its range is checked: NaN fails
	// every comparison, so it passes a check written as a rejection,
	// and NaN or ±Inf breaks the model silently or panics mid-run.
	for _, f := range []struct {
		name string
		v    float64
		ok   bool   // v is in range
		want string // the range, for the error
	}{
		{"NodeBandwidth", c.NodeBandwidth, c.NodeBandwidth > 0, "positive"},
		{"GatewayBandwidth", c.GatewayBandwidth, c.GatewayBandwidth > 0, "positive"},
		{"VantageBandwidth", c.VantageBandwidth, c.VantageBandwidth > 0, "positive"},
		{"VantageGatewayFraction", c.VantageGatewayFraction, c.VantageGatewayFraction >= 0 && c.VantageGatewayFraction <= 1, "in [0, 1]"},
		{"VantageProcSpeed", c.VantageProcSpeed, c.VantageProcSpeed > 0, "positive"},
		{"GatewayProcSpeed", c.GatewayProcSpeed, c.GatewayProcSpeed > 0, "positive"},
		{"NodeProcSpeedMin", c.NodeProcSpeedMin, c.NodeProcSpeedMin > 0, "positive"},
		{"NodeProcSpeedMax", c.NodeProcSpeedMax, c.NodeProcSpeedMax >= c.NodeProcSpeedMin, "at least NodeProcSpeedMin"},
		{"TxGen.Rate", c.TxGen.Rate, true, ""}, // positive when the workload runs, checked below
		{"TxGen.SkewExponent", c.TxGen.SkewExponent, true, ""},
		{"TxGen.BurstProb", c.TxGen.BurstProb, true, ""},
		{"TxGen.BurstMeanExtra", c.TxGen.BurstMeanExtra, true, ""},
		{"TxGen.MultiEntryProb", c.TxGen.MultiEntryProb, true, ""},
		{"TxGen.GasPriceMean", c.TxGen.GasPriceMean, true, ""},
		{"TxGen.FloorPriceMean", c.TxGen.FloorPriceMean, true, ""},
		{"Clock.P10ms", c.Clock.P10ms, c.Clock.P10ms >= 0 && c.Clock.P10ms <= 1, "in [0, 1]"},
		{"Clock.P100ms", c.Clock.P100ms, c.Clock.P100ms >= 0 && c.Clock.P100ms <= 1, "in [0, 1]"},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: %s must be a finite number, got %g", f.name, f.v)
		}
		if !f.ok {
			return fmt.Errorf("core: %s must be %s, got %g", f.name, f.want, f.v)
		}
	}
	if c.Latency == nil || c.NodeDistribution == nil {
		return fmt.Errorf("core: latency model and node distribution are required")
	}
	if err := c.P2P.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if len(c.Pools) == 0 {
		return fmt.Errorf("core: at least one mining pool is required")
	}
	for i := range c.Pools {
		if err := c.Pools[i].Validate(); err != nil {
			return err
		}
	}
	if len(c.Vantages) == 0 {
		return fmt.Errorf("core: at least one vantage is required")
	}
	seen := make(map[string]bool, len(c.Vantages))
	primary := 0
	for _, v := range c.Vantages {
		if !v.Auxiliary {
			primary++
		}
		if v.Name == "" {
			return fmt.Errorf("core: vantage with empty name")
		}
		if seen[v.Name] {
			return fmt.Errorf("core: duplicate vantage name %q", v.Name)
		}
		seen[v.Name] = true
		if v.Peers < 1 {
			return fmt.Errorf("core: vantage %s needs at least one peer", v.Name)
		}
		if !v.Region.Valid() {
			return fmt.Errorf("core: vantage %s has invalid region", v.Name)
		}
	}
	if primary > analysis.MaxVantages {
		// The streaming arrival index keeps one bit per primary vantage
		// in each block's state word.
		return fmt.Errorf("core: at most %d primary vantages supported, got %d", analysis.MaxVantages, primary)
	}
	if c.RedundancyVantage != "" && !seen[c.RedundancyVantage] {
		return fmt.Errorf("core: redundancy vantage %q not among vantages", c.RedundancyVantage)
	}
	if c.EnableTxWorkload {
		if c.TxGen.Rate <= 0 {
			return fmt.Errorf("core: tx workload enabled but rate is %f", c.TxGen.Rate)
		}
		if c.SenderDistribution == nil {
			return fmt.Errorf("core: tx workload enabled but sender distribution is nil")
		}
	}
	if err := consensus.Validate(c.Protocol); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	for _, spec := range c.Scenarios {
		if err := scenario.Validate(spec); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// ResolveShards returns 1: campaigns run on one engine. It is kept only
// for perfbench; delete it with Shards.
func (c *Config) ResolveShards() int { return 1 }

// ProtocolTag returns the canonical textual form of the configured
// consensus protocol ("ethereum" for the zero value) — the annotation
// carried by results and log metadata.
func (c *Config) ProtocolTag() string { return c.Protocol.String() }

// PrimaryVantages returns the non-auxiliary vantage names in
// presentation order — the roster the arrival analyses cover.
func (c *Config) PrimaryVantages() []string {
	names := make([]string, 0, len(c.Vantages))
	for _, v := range c.Vantages {
		if !v.Auxiliary {
			names = append(names, v.Name)
		}
	}
	return names
}

// PoolNames extracts the pool names in spec order (PoolID i+1 maps to
// element i).
func (c *Config) PoolNames() []string {
	names := make([]string, len(c.Pools))
	for i := range c.Pools {
		names[i] = c.Pools[i].Name
	}
	return names
}
