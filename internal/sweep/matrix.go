package sweep

import (
	"fmt"
	"strings"
	"time"

	"ethmeasure/internal/consensus"
	"ethmeasure/internal/core"
	"ethmeasure/internal/mining"
	"ethmeasure/internal/scenario"
)

// Variant is one setting of an axis: a label plus the mutation it
// applies to a run's configuration.
type Variant struct {
	// Name labels the variant in scenario strings ("500", "on", ...).
	Name string
	// Apply mutates one run's config. It runs on a private copy, after
	// the base config and any earlier axes, before the seed is set.
	Apply func(*core.Config)
}

// Axis is one dimension of the sweep matrix.
type Axis struct {
	Name     string
	Variants []Variant
}

// Matrix expands a base configuration across scenario axes and seeds.
// Every combination of one variant per axis forms a scenario; every
// scenario runs once per seed. Axes apply in declaration order, so a
// later axis can override an earlier one's effect.
type Matrix struct {
	// Base is the starting configuration for every run.
	Base core.Config
	// Seeds are the per-scenario repetitions. Empty means [Base.Seed].
	Seeds []int64
	// Axes are the scenario dimensions. Empty means the single "base"
	// scenario (a pure seed sweep).
	Axes []Axis
}

// Run is one fully-specified campaign within a sweep.
type Run struct {
	// Index is the run's position in matrix expansion order; it is the
	// stable identity that makes parallel and serial sweeps comparable.
	Index int
	// Scenario names the axis-variant combination ("nodes=500,discovery=on"),
	// or "base" for a pure seed sweep.
	Scenario string
	// Seed is the campaign seed (also set in Config).
	Seed int64
	// Config is the expanded configuration.
	Config core.Config
}

// Seeds returns n consecutive seeds starting at base — the common
// shape of a seed sweep.
func Seeds(base int64, n int) []int64 {
	out := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, base+int64(i))
	}
	return out
}

// Runs expands the matrix into its flat run list: the cartesian
// product of all axes, seeds innermost. Every expanded configuration
// is validated up front so a sweep fails fast with the offending
// scenario named, rather than mid-flight on a worker.
func (m *Matrix) Runs() ([]Run, error) {
	for _, ax := range m.Axes {
		if ax.Name == "" {
			return nil, fmt.Errorf("sweep: axis with empty name")
		}
		if len(ax.Variants) == 0 {
			return nil, fmt.Errorf("sweep: axis %q has no variants", ax.Name)
		}
		seen := make(map[string]bool, len(ax.Variants))
		for _, v := range ax.Variants {
			if v.Name == "" {
				return nil, fmt.Errorf("sweep: axis %q has a variant with an empty name", ax.Name)
			}
			if seen[v.Name] {
				return nil, fmt.Errorf("sweep: axis %q repeats variant %q", ax.Name, v.Name)
			}
			seen[v.Name] = true
			if v.Apply == nil {
				return nil, fmt.Errorf("sweep: axis %q variant %q has no Apply", ax.Name, v.Name)
			}
		}
	}
	seeds := m.Seeds
	if len(seeds) == 0 {
		seeds = []int64{m.Base.Seed}
	}

	total := len(seeds)
	for _, ax := range m.Axes {
		total *= len(ax.Variants)
	}
	runs := make([]Run, 0, total)

	// choice[i] selects the current variant of axis i; odometer-style
	// iteration keeps expansion order stable and axes-major.
	choice := make([]int, len(m.Axes))
	for {
		var labels []string
		for i, ax := range m.Axes {
			labels = append(labels, ax.Name+"="+ax.Variants[choice[i]].Name)
		}
		scenario := "base"
		if len(labels) > 0 {
			scenario = strings.Join(labels, ",")
		}
		for _, seed := range seeds {
			cfg := m.Base
			for i, ax := range m.Axes {
				ax.Variants[choice[i]].Apply(&cfg)
			}
			cfg.Seed = seed
			if err := cfg.Validate(); err != nil {
				return nil, fmt.Errorf("sweep: scenario %q seed %d: %w", scenario, seed, err)
			}
			runs = append(runs, Run{
				Index:    len(runs),
				Scenario: scenario,
				Seed:     seed,
				Config:   cfg,
			})
		}

		// Advance the odometer (last axis fastest).
		i := len(choice) - 1
		for ; i >= 0; i-- {
			choice[i]++
			if choice[i] < len(m.Axes[i].Variants) {
				break
			}
			choice[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return runs, nil
}

// NumRuns returns the size of the expanded matrix without building it.
func (m *Matrix) NumRuns() int {
	n := len(m.Seeds)
	if n == 0 {
		n = 1
	}
	for _, ax := range m.Axes {
		n *= len(ax.Variants)
	}
	return n
}

// Nodes varies the regular node count.
func Nodes(counts ...int) Axis {
	ax := Axis{Name: "nodes"}
	for _, n := range counts {
		n := n
		ax.Variants = append(ax.Variants, Variant{
			Name:  fmt.Sprintf("%d", n),
			Apply: func(cfg *core.Config) { cfg.NumNodes = n },
		})
	}
	return ax
}

// Discovery toggles the Kademlia-style discovery overlay against the
// plain random graph.
func Discovery(vals ...bool) Axis {
	ax := Axis{Name: "discovery"}
	for _, v := range vals {
		v := v
		name := "off"
		if v {
			name = "on"
		}
		ax.Variants = append(ax.Variants, Variant{
			Name:  name,
			Apply: func(cfg *core.Config) { cfg.UseDiscovery = v },
		})
	}
	return ax
}

// Durations varies the virtual campaign length.
func Durations(ds ...time.Duration) Axis {
	ax := Axis{Name: "duration"}
	for _, d := range ds {
		d := d
		ax.Variants = append(ax.Variants, Variant{
			Name:  d.String(),
			Apply: func(cfg *core.Config) { cfg.Duration = d },
		})
	}
	return ax
}

// TxRates varies the transaction workload rate, re-deriving the block
// capacity and mempool floor the way the presets do.
func TxRates(rates ...float64) Axis {
	ax := Axis{Name: "txrate"}
	for _, r := range rates {
		r := r
		ax.Variants = append(ax.Variants, Variant{
			Name: fmt.Sprintf("%g", r),
			Apply: func(cfg *core.Config) {
				cfg.TxGen.Rate = r
				core.ApplyCapacity(cfg)
			},
		})
	}
	return ax
}

// Pool hash-rate split variants accepted by PoolSplits.
const (
	// PoolSplitPaper is the paper's measured April-2019 population.
	PoolSplitPaper = "paper"
	// PoolSplitUniform keeps the paper's power shares but spreads every
	// pool's gateways across all regions (geography ablation).
	PoolSplitUniform = "uniform"
	// PoolSplitEqual levels the hash power equally across the paper's
	// pools (decentralization ablation: no dominant miner).
	PoolSplitEqual = "equal"
	// PoolSplitMajority concentrates 51% of the hash power in the top
	// pool, scaling the rest down proportionally (centralization
	// stress: the §III-D majority-miner scenario).
	PoolSplitMajority = "majority"
)

// PoolSplits varies the mining-pool population / hash-rate split.
// Accepted kinds: "paper", "uniform", "equal", "majority".
func PoolSplits(kinds ...string) (Axis, error) {
	ax := Axis{Name: "pools"}
	for _, kind := range kinds {
		pools, err := poolsFor(kind)
		if err != nil {
			return Axis{}, err
		}
		ax.Variants = append(ax.Variants, Variant{
			Name:  kind,
			Apply: func(cfg *core.Config) { cfg.Pools = pools },
		})
	}
	return ax, nil
}

func poolsFor(kind string) ([]mining.PoolSpec, error) {
	switch kind {
	case PoolSplitPaper:
		return mining.PaperPools(), nil
	case PoolSplitUniform:
		return mining.UniformGatewayPools(), nil
	case PoolSplitEqual:
		pools := mining.PaperPools()
		share := 1.0 / float64(len(pools))
		for i := range pools {
			pools[i].Power = share
		}
		return pools, nil
	case PoolSplitMajority:
		pools := mining.PaperPools()
		rest := 0.0
		for _, p := range pools[1:] {
			rest += p.Power
		}
		pools[0].Power = 0.51
		scale := 0.49 / rest
		for i := 1; i < len(pools); i++ {
			pools[i].Power *= scale
		}
		return pools, nil
	default:
		return nil, fmt.Errorf("sweep: unknown pool split %q (want paper|uniform|equal|majority)", kind)
	}
}

// ScenarioVariantNone is the Scenarios variant name meaning "no extra
// scenario" (the unmodified base configuration).
const ScenarioVariantNone = "none"

// Scenarios varies the composed intervention list: each variant is one
// scenario spec string ("partition:a=EA+SEA,dur=10m",
// "relayoverlay", ...) appended to the base config's Scenarios list,
// or "none" for the unmodified base. Specs are parsed and validated
// against the scenario registry up front, so a sweep fails fast on an
// unknown name or parameter.
func Scenarios(specs ...string) (Axis, error) {
	ax := Axis{Name: "scenario"}
	for _, raw := range specs {
		raw = strings.TrimSpace(raw)
		if raw == ScenarioVariantNone || raw == "base" {
			ax.Variants = append(ax.Variants, Variant{
				Name:  ScenarioVariantNone,
				Apply: func(*core.Config) {},
			})
			continue
		}
		spec, err := scenario.Parse(raw)
		if err != nil {
			return Axis{}, fmt.Errorf("sweep: scenario axis: %w", err)
		}
		if err := scenario.Validate(spec); err != nil {
			return Axis{}, fmt.Errorf("sweep: scenario axis: %w", err)
		}
		ax.Variants = append(ax.Variants, Variant{
			Name: spec.String(),
			Apply: func(cfg *core.Config) {
				// Copy-on-append: the base config's slice is shared
				// across every expanded run.
				scenarios := make([]scenario.Spec, 0, len(cfg.Scenarios)+1)
				scenarios = append(scenarios, cfg.Scenarios...)
				cfg.Scenarios = append(scenarios, spec)
			},
		})
	}
	return ax, nil
}

// Protocols varies the consensus rule set: each variant is one
// protocol spec string ("ethereum", "bitcoin",
// "ghost-inclusive:depth=10", ...) installed as the run's
// core.Config.Protocol. Specs are parsed and validated against the
// consensus registry up front, so a sweep fails fast on an unknown
// name or parameter. Cross-protocol aggregates group per variant;
// protocol-conditional KeyMetrics (uncle shares) appear only in the
// variants whose protocol produces them.
func Protocols(specs ...string) (Axis, error) {
	ax := Axis{Name: "protocol"}
	for _, raw := range specs {
		spec, err := consensus.Parse(raw)
		if err != nil {
			return Axis{}, fmt.Errorf("sweep: protocol axis: %w", err)
		}
		if err := consensus.Validate(spec); err != nil {
			return Axis{}, fmt.Errorf("sweep: protocol axis: %w", err)
		}
		ax.Variants = append(ax.Variants, Variant{
			Name:  spec.String(),
			Apply: func(cfg *core.Config) { cfg.Protocol = spec },
		})
	}
	return ax, nil
}

// Churn profile variants accepted by ChurnProfiles.
const (
	ChurnNone    = "none"
	ChurnDefault = "default"
	ChurnHeavy   = "heavy"
)

// ChurnProfiles varies node turnover. Accepted kinds: "none",
// "default" (the mild ablation profile: a restart every 2 min with
// 5 min downtimes), "heavy" (4x faster cycling). A profile prepends
// its "churn" scenario spec to the run's Scenarios list, so churn
// composes before any other scenario whichever order the axes are
// declared in.
func ChurnProfiles(kinds ...string) (Axis, error) {
	ax := Axis{Name: "churn"}
	for _, kind := range kinds {
		v := Variant{Name: kind, Apply: func(*core.Config) {}}
		switch kind {
		case ChurnNone:
		case ChurnDefault:
			v.Apply = prependChurn("2m0s")
		case ChurnHeavy:
			v.Apply = prependChurn("30s")
		default:
			return Axis{}, fmt.Errorf("sweep: unknown churn profile %q (want none|default|heavy)", kind)
		}
		ax.Variants = append(ax.Variants, v)
	}
	return ax, nil
}

// prependChurn returns an Apply that puts a churn spec with the given
// mean restart interval and 5 min downtimes first in a run's Scenarios.
func prependChurn(interval string) func(*core.Config) {
	spec := scenario.Spec{
		Name:   scenario.ChurnName,
		Params: map[string]string{"interval": interval, "downtime": "5m0s"},
	}
	return func(cfg *core.Config) {
		// A fresh slice: the base config's is shared across every
		// expanded run.
		cfg.Scenarios = append([]scenario.Spec{spec}, cfg.Scenarios...)
	}
}
