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
//
// Beyond a campaign, the facade covers winner sequences without a
// network (FastWinners, HistoricalWinners, AnalyzeSequences), seed
// sweeps (SweepMatrix, RunSweep) and parsed scenario and protocol
// specs for Config.Scenarios and Config.Protocol. It exports what the
// commands and the runnable programs under examples/ use, and
// ethmeasure_test.go pins that list.
package ethmeasure

import (
	"context"
	"io"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/consensus"
	"ethmeasure/internal/core"
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
	// Campaign is one configured run.
	Campaign = core.Campaign
	// Results bundles the dataset and every per-figure analysis.
	Results = core.Results
	// PoolSpec describes one mining pool.
	PoolSpec = mining.PoolSpec
	// PoolID identifies a mining pool in winner sequences.
	PoolID = types.PoolID
	// HistoricalEpoch is one period of chain history with its own
	// miner-power distribution (whole-blockchain scan, §III-D).
	HistoricalEpoch = mining.HistoricalEpoch
	// SequencesResult is the Figure 7 / §III-D sequence analysis.
	SequencesResult = analysis.SequencesResult
)

// QuickConfig returns a small preset for tests and examples.
func QuickConfig() Config { return core.QuickConfig() }

// NewCampaign validates cfg and builds the full simulated system.
func NewCampaign(cfg Config) (*Campaign, error) { return core.NewCampaign(cfg) }

// Run-control types for Campaign.RunContext: cancellation, live
// progress callbacks and checkpoint/resume (see internal/core).
type (
	// RunOptions configures one RunContext invocation.
	RunOptions = core.RunOptions
	// RunProgress is one live progress snapshot.
	RunProgress = core.Progress
)

// PaperPools returns the 15 named pools (plus remainder) with the
// paper's measured power shares and behaviour calibration.
func PaperPools() []PoolSpec { return mining.PaperPools() }

// UniformGatewayPools is PaperPools with geography removed (ablation).
func UniformGatewayPools() []PoolSpec { return mining.UniformGatewayPools() }

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

// Sweep types: multi-seed, multi-scenario campaign fleets with
// cross-seed aggregate statistics (see internal/sweep).
type (
	// SweepMatrix expands a base Config across seeds and scenario axes.
	SweepMatrix = sweep.Matrix
	// SweepAxis is one scenario dimension of a sweep matrix.
	SweepAxis = sweep.Axis
	// SweepRunResult is one campaign's outcome within a sweep.
	SweepRunResult = sweep.RunResult
	// SweepAggregate is the cross-seed summary of a whole sweep.
	SweepAggregate = sweep.AggregateResult
)

// SweepSeeds returns n consecutive seeds starting at base.
func SweepSeeds(base int64, n int) []int64 { return sweep.Seeds(base, n) }

// SweepDiscovery varies the topology-construction mechanism.
func SweepDiscovery(vals ...bool) SweepAxis { return sweep.Discovery(vals...) }

// RunSweep expands the matrix, executes every campaign on up to
// workers concurrent goroutines (GOMAXPROCS when workers <= 0), and
// folds the per-run metrics into cross-seed mean ± 95% CI aggregates.
// Equal seeds give equal runs, and parallelism never changes results:
// the aggregate is identical to a serial loop over the same matrix.
func RunSweep(ctx context.Context, m *SweepMatrix, workers int) (*SweepAggregate, []SweepRunResult, error) {
	return sweep.Sweep(ctx, m, workers)
}

// ScenarioSpec names one scenario plus its parameters; textual form
// "name[:key=val,...]". Scenarios are composable interventions plugged
// into a campaign via Config.Scenarios (see internal/scenario for the
// plugin catalog: churn, withhold, partition, relayoverlay, eclipse,
// bandwidth, churnburst).
type ScenarioSpec = scenario.Spec

// ParseScenario reads a scenario spec from "name[:key=val,...]".
func ParseScenario(s string) (ScenarioSpec, error) { return scenario.Parse(s) }

// ProtocolSpec names one consensus protocol plus its parameters;
// textual form "name[:key=val,...]". The zero value means ethereum.
// The protocol is the pluggable rule set a campaign's chain runs under
// (see internal/consensus for the catalog: ethereum, bitcoin,
// ghost-inclusive).
type ProtocolSpec = consensus.Spec

// ParseProtocol reads a protocol spec from "name[:key=val,...]".
func ParseProtocol(s string) (ProtocolSpec, error) { return consensus.Parse(s) }

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
