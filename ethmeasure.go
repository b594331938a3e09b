// Package ethmeasure reproduces the measurement study "Impact of
// Geo-distribution and Mining Pools on Blockchains: A Study of
// Ethereum" (Silva, Vavřička, Barreto, Matos — DSN 2020) as a
// self-contained Go library.
//
// Because a live one-month mainnet campaign is not reproducible on
// demand, the library ships the substrate the paper measured: a
// deterministic discrete-event simulation of the Ethereum network —
// Geth 1.8-style block/transaction relay, geo-distributed mining pools
// with the paper's April-2019 power shares, and the selfish behaviours
// the paper documents — plus the instrumented measurement nodes and
// the full analysis pipeline that regenerates every table and figure
// of the paper's evaluation.
//
// Quick start:
//
//	cfg := ethmeasure.QuickConfig()
//	campaign, err := ethmeasure.NewCampaign(cfg)
//	if err != nil { ... }
//	results, err := campaign.RunContext(context.Background(), ethmeasure.RunOptions{})
//	if err != nil { ... }
//	ethmeasure.WriteReport(os.Stdout, results)
//
// RunContext is the one way to run a campaign in full. Cancelling ctx
// stops the simulation after the current event; RunOptions adds live
// progress and checkpoint/resume.
package ethmeasure

import (
	"context"
	"io"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/consensus"
	"ethmeasure/internal/core"
	"ethmeasure/internal/geo"
	"ethmeasure/internal/logs"
	"ethmeasure/internal/measure"
	"ethmeasure/internal/mining"
	"ethmeasure/internal/report"
	"ethmeasure/internal/scenario"
	"ethmeasure/internal/sweep"
	"ethmeasure/internal/types"
)

// Re-exported configuration and campaign types. These aliases form the
// stable public API over the internal implementation packages.
type (
	// Config fully describes a measurement campaign.
	Config = core.Config
	// VantageSpec places one instrumented measurement node.
	VantageSpec = core.VantageSpec
	// Campaign is one configured run.
	Campaign = core.Campaign
	// Results bundles the dataset and every per-figure analysis.
	Results = core.Results
	// RunStats summarises a finished run.
	RunStats = core.RunStats
	// PoolSpec describes one mining pool.
	PoolSpec = mining.PoolSpec
	// Region is a coarse geographic area.
	Region = geo.Region
	// MachineSpec is one measurement machine (paper Table I).
	MachineSpec = measure.MachineSpec
	// BlockRecord is one logged block-related message reception.
	BlockRecord = measure.BlockRecord
	// TxRecord is one transaction first-observation record.
	TxRecord = measure.TxRecord
	// PoolID identifies a mining pool in winner sequences.
	PoolID = types.PoolID
	// HistoricalEpoch is one period of chain history with its own
	// miner-power distribution (whole-blockchain scan, §III-D).
	HistoricalEpoch = mining.HistoricalEpoch
	// SequencesResult is the Figure 7 / §III-D sequence analysis.
	SequencesResult = analysis.SequencesResult
)

// Geographic regions (the first four are the paper's vantage points).
const (
	NorthAmerica  = geo.NorthAmerica
	EasternAsia   = geo.EasternAsia
	WesternEurope = geo.WesternEurope
	CentralEurope = geo.CentralEurope
	EasternEurope = geo.EasternEurope
	SoutheastAsia = geo.SoutheastAsia
	SouthAmerica  = geo.SouthAmerica
	Oceania       = geo.Oceania
)

// DefaultConfig returns the laptop-scale campaign preset.
func DefaultConfig() Config { return core.DefaultConfig() }

// QuickConfig returns a small preset for tests and examples.
func QuickConfig() Config { return core.QuickConfig() }

// PaperScaleConfig approximates the paper's real campaign dimensions.
func PaperScaleConfig() Config { return core.PaperScaleConfig() }

// NewCampaign validates cfg and builds the full simulated system.
func NewCampaign(cfg Config) (*Campaign, error) { return core.NewCampaign(cfg) }

// Run-control types for Campaign.RunContext: cancellation, live
// progress callbacks and checkpoint/resume (see internal/core).
type (
	// RunOptions configures one RunContext invocation.
	RunOptions = core.RunOptions
	// RunProgress is one live progress snapshot.
	RunProgress = core.Progress
	// Checkpoint is one resumable barrier of a running campaign.
	Checkpoint = logs.Checkpoint
)

// ErrResumeDiverged reports that a resumed campaign failed fingerprint
// verification at its checkpoint barrier — the replayed prefix did not
// reproduce the checkpointed run bit for bit.
var ErrResumeDiverged = core.ErrResumeDiverged

// PaperPools returns the 15 named pools (plus remainder) with the
// paper's measured power shares and behaviour calibration.
func PaperPools() []PoolSpec { return mining.PaperPools() }

// UniformGatewayPools is PaperPools with geography removed (ablation).
func UniformGatewayPools() []PoolSpec { return mining.UniformGatewayPools() }

// PaperInfrastructure returns the paper's Table I machine specs.
func PaperInfrastructure() []MachineSpec { return measure.PaperInfrastructure() }

// FastWinners generates n main-chain block winners without simulating
// the network (chain-level fast simulation). Consecutive-sequence
// statistics depend only on the winner distribution, so this powers
// month-scale and whole-history Figure 7 / §III-D studies in
// milliseconds.
func FastWinners(pools []PoolSpec, n int, seed int64) ([]PoolID, []string, error) {
	fc, err := mining.NewFastChain(pools, seed)
	if err != nil {
		return nil, nil, err
	}
	return fc.Winners(n), fc.PoolNames(), nil
}

// DefaultHistory approximates the evolution of Ethereum's miner
// concentration from genesis to block ~7.68M (May 2019).
func DefaultHistory() []HistoricalEpoch { return mining.DefaultHistory() }

// HistoricalWinners concatenates winner sequences across epochs.
func HistoricalWinners(epochs []HistoricalEpoch, seed int64) ([]PoolID, []string, error) {
	return mining.HistoricalWinners(epochs, seed)
}

// AnalyzeSequences computes the Figure 7 analysis over an explicit
// winner sequence.
func AnalyzeSequences(winners []PoolID, poolNames []string, interBlockSec float64, topN int) *SequencesResult {
	return analysis.SequencesFromWinners(winners, poolNames, interBlockSec, topN)
}

// HistoricalSequenceCounts counts runs of length ≥ each threshold (the
// paper's whole-blockchain scan found 102/41/4/1 runs of ≥10/11/12/14).
func HistoricalSequenceCounts(winners []PoolID, thresholds []int) map[int]int {
	return analysis.HistoricalSequenceCounts(winners, thresholds)
}

// ExpectedSequences is the paper's §III-D estimate n·p^k of how many
// k-block runs a pool with power share p produces over n blocks.
func ExpectedSequences(p float64, k, n int) float64 {
	return analysis.ExpectedSequences(p, k, n)
}

// WriteSequences renders a Figure 7 analysis to w.
func WriteSequences(w io.Writer, r *SequencesResult) { report.Figure7(w, r) }

// FinalityResult is the k-block confirmation-rule safety analysis.
type FinalityResult = analysis.FinalityResult

// AnalyzeFinality evaluates the k-block rule over a winner sequence,
// sweeping confirmation depths 1..maxDepth (paper §III-D).
func AnalyzeFinality(winners []PoolID, poolNames []string, maxDepth int) *FinalityResult {
	return analysis.FinalityFromWinners(winners, poolNames, maxDepth)
}

// WriteFinality renders a finality analysis to w.
func WriteFinality(w io.Writer, r *FinalityResult) { report.Finality(w, r) }

// Sweep types: multi-seed, multi-scenario campaign fleets with
// cross-seed aggregate statistics (see internal/sweep).
type (
	// SweepMatrix expands a base Config across seeds and scenario axes.
	SweepMatrix = sweep.Matrix
	// SweepAxis is one scenario dimension of a sweep matrix.
	SweepAxis = sweep.Axis
	// SweepVariant is one setting of a sweep axis.
	SweepVariant = sweep.Variant
	// SweepRunner executes a matrix's campaigns on a worker pool.
	SweepRunner = sweep.Runner
	// SweepRunResult is one campaign's outcome within a sweep.
	SweepRunResult = sweep.RunResult
	// SweepAggregate is the cross-seed summary of a whole sweep.
	SweepAggregate = sweep.AggregateResult
	// KeyMetrics is the flat map of one run's headline scalars.
	KeyMetrics = analysis.KeyMetrics
)

// SweepSeeds returns n consecutive seeds starting at base.
func SweepSeeds(base int64, n int) []int64 { return sweep.Seeds(base, n) }

// SweepNodes varies the regular node count across a sweep.
func SweepNodes(counts ...int) SweepAxis { return sweep.Nodes(counts...) }

// SweepDiscovery varies the topology-construction mechanism.
func SweepDiscovery(vals ...bool) SweepAxis { return sweep.Discovery(vals...) }

// SweepPoolSplits varies the pool population / hash-rate split
// ("paper", "uniform", "equal", "majority").
func SweepPoolSplits(kinds ...string) (SweepAxis, error) { return sweep.PoolSplits(kinds...) }

// SweepChurnProfiles varies node turnover ("none", "default", "heavy").
func SweepChurnProfiles(kinds ...string) (SweepAxis, error) { return sweep.ChurnProfiles(kinds...) }

// RunSweep expands the matrix, executes every campaign on up to
// workers concurrent goroutines (GOMAXPROCS when workers <= 0), and
// folds the per-run metrics into cross-seed mean ± 95% CI aggregates.
// Equal seeds give equal runs, and parallelism never changes results:
// the aggregate is identical to a serial loop over the same matrix.
func RunSweep(ctx context.Context, m *SweepMatrix, workers int) (*SweepAggregate, []SweepRunResult, error) {
	return sweep.Sweep(ctx, m, workers)
}

// Scenario types: composable interventions plugged into a campaign via
// Config.Scenarios (see internal/scenario for the plugin catalog:
// churn, withhold, partition, relayoverlay, eclipse, bandwidth,
// churnburst).
type (
	// ScenarioSpec names one scenario plus its parameters; textual form
	// "name[:key=val,...]".
	ScenarioSpec = scenario.Spec
	// ScenarioRegistration describes one catalog entry.
	ScenarioRegistration = scenario.Registration
	// ScenarioResult annotates a run's Results with its scenarios.
	ScenarioResult = analysis.ScenarioResult
)

// ParseScenario reads a scenario spec from "name[:key=val,...]".
func ParseScenario(s string) (ScenarioSpec, error) { return scenario.Parse(s) }

// ScenarioCatalog returns every registered scenario, sorted by name.
func ScenarioCatalog() []ScenarioRegistration { return scenario.Catalog() }

// SweepScenarios varies the composed scenario list across a sweep:
// each spec string is one variant ("none" = the unmodified base).
func SweepScenarios(specs ...string) (SweepAxis, error) { return sweep.Scenarios(specs...) }

// Consensus-protocol types: the pluggable rule set a campaign's chain
// runs under (see internal/consensus for the catalog: ethereum,
// bitcoin, ghost-inclusive).
type (
	// Protocol bundles fork choice, reference (uncle) policy, reward
	// schedule and target interval.
	Protocol = consensus.Protocol
	// ProtocolSpec names one protocol plus its parameters; textual
	// form "name[:key=val,...]". The zero value means ethereum.
	ProtocolSpec = consensus.Spec
	// ProtocolRegistration describes one catalog entry.
	ProtocolRegistration = consensus.Registration
)

// ParseProtocol reads a protocol spec from "name[:key=val,...]".
func ParseProtocol(s string) (ProtocolSpec, error) { return consensus.Parse(s) }

// ProtocolCatalog returns every registered protocol, sorted by name.
func ProtocolCatalog() []ProtocolRegistration { return consensus.Catalog() }

// SweepProtocols varies the consensus rule set across a sweep: each
// spec string is one variant.
func SweepProtocols(specs ...string) (SweepAxis, error) { return sweep.Protocols(specs...) }

// WriteReport renders every available analysis in results to w in the
// order the paper presents them.
func WriteReport(w io.Writer, results *Results) {
	fprintSection := func(fn func()) {
		fn()
		io.WriteString(w, "\n")
	}
	fprintSection(func() { report.TableI(w, measure.PaperInfrastructure()) })
	if results.Propagation != nil {
		fprintSection(func() { report.Figure1(w, results.Propagation) })
	}
	if results.Redundancy != nil {
		fprintSection(func() { report.TableII(w, results.Redundancy) })
	}
	if results.FirstObs != nil {
		fprintSection(func() { report.Figure2(w, results.FirstObs) })
	}
	if results.PoolGeo != nil {
		fprintSection(func() { report.Figure3(w, results.PoolGeo) })
	}
	if results.Commit != nil {
		fprintSection(func() { report.Figure4(w, results.Commit) })
	}
	if results.Ordering != nil {
		fprintSection(func() { report.Figure5(w, results.Ordering) })
	}
	if results.Empty != nil {
		fprintSection(func() { report.Figure6(w, results.Empty) })
	}
	if results.Forks != nil {
		fprintSection(func() { report.TableIII(w, results.Forks) })
	}
	if results.OneMiner != nil {
		fprintSection(func() { report.OneMinerForks(w, results.OneMiner) })
	}
	if results.Sequences != nil {
		fprintSection(func() { report.Figure7(w, results.Sequences) })
	}
	if results.TxProp != nil {
		fprintSection(func() { report.TxPropagation(w, results.TxProp) })
	}
	if results.GeoDelay != nil {
		fprintSection(func() { report.GeoDelay(w, results.GeoDelay) })
	}
	if results.FeeMarket != nil {
		fprintSection(func() { report.FeeMarket(w, results.FeeMarket) })
	}
	if results.InterBlock != nil {
		fprintSection(func() { report.InterBlock(w, results.InterBlock) })
	}
	if results.Throughput != nil {
		fprintSection(func() { report.Throughput(w, results.Throughput) })
	}
	if results.Rewards != nil {
		fprintSection(func() { report.Rewards(w, results.Rewards) })
	}
	if results.Finality != nil {
		fprintSection(func() { report.Finality(w, results.Finality) })
	}
	if results.Withholding != nil {
		fprintSection(func() { report.Withholding(w, results.Withholding) })
	}
}
