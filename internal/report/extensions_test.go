package report

import (
	"strings"
	"testing"

	"ethmeasure/internal/analysis"
)

func TestRewardsRendering(t *testing.T) {
	r := &analysis.RewardsResult{
		Rows: []analysis.PoolRewardRow{{
			Pool: "Sparkpool", MainBlocks: 104, UncleBlocks: 10,
			BlockRewardETH: 208, UncleRewardETH: 17.5, NephewRewardETH: 0.5625,
			SiblingUncleETH: 3.5, TotalETH: 226.06,
		}},
		TotalETH: 1034, UncleETH: 69.5, SiblingUncleETH: 5,
		SiblingShare: 0.072, WastedBlocks: 2, WastedShare: 0.0038,
	}
	out := render(func(sb *strings.Builder) { Rewards(sb, r) })
	for _, want := range []string{"Sparkpool", "226.06", "1034.00 ETH", "3.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("rewards missing %q in:\n%s", want, out)
		}
	}
}

func TestFinalityRendering(t *testing.T) {
	r := &analysis.FinalityResult{
		Rows: []analysis.FinalityRow{
			{Depth: 12, SinglePoolWindows: 3, SinglePoolShare: 1.5e-5, TopPoolTheory: 3.5e-7, NakamotoCatchup: 2.9e-6},
		},
		MainBlocks: 201086, TopPool: "Ethermine", TopShare: 0.2532,
		TwelveBlockViolations: 3,
	}
	out := render(func(sb *strings.Builder) { Finality(sb, r) })
	for _, want := range []string{"Ethermine", "25.3%", "WARNING", "12"} {
		if !strings.Contains(out, want) {
			t.Errorf("finality missing %q in:\n%s", want, out)
		}
	}
	r.TwelveBlockViolations = 0
	out = render(func(sb *strings.Builder) { Finality(sb, r) })
	if strings.Contains(out, "WARNING") {
		t.Error("warning printed without violations")
	}
}

func TestThroughputRendering(t *testing.T) {
	r := &analysis.ThroughputResult{
		TotalBlocks: 523, MainBlocks: 481, SideBlocks: 42,
		SidePowerShare: 0.0803, CommittedTxs: 12795, CommittedTxPS: 1.78,
		EmptyBlockCapacityLoss: 189, EffectiveUtilization: 0.985,
		DuplicateTxInclusions: 1134,
	}
	out := render(func(sb *strings.Builder) { Throughput(sb, r) })
	for _, want := range []string{"8.03%", "12795", "1134", "98.5%"} {
		if !strings.Contains(out, want) {
			t.Errorf("throughput missing %q in:\n%s", want, out)
		}
	}
}

func TestInterBlockRendering(t *testing.T) {
	r := &analysis.InterBlockResult{
		GapsSec: sampleOf(13, 14),
		MeanSec: 15.0, MedianSec: 11.0, P95Sec: 41.7, CoeffVar: 0.90, Blocks: 480,
	}
	out := render(func(sb *strings.Builder) { InterBlock(sb, r) })
	for _, want := range []string{"mean=15.0s", "CV=0.90", "13.3s"} {
		if !strings.Contains(out, want) {
			t.Errorf("interblock missing %q in:\n%s", want, out)
		}
	}
}

func TestWithholdingRendering(t *testing.T) {
	r := &analysis.WithholdingResult{
		Rows: []analysis.WithholdingRow{
			{Pool: "Ethermine", Sequences: 12, BurstSequences: 10, MeanIntraGapSec: 0.4},
			{Pool: "Sparkpool", Sequences: 8, BurstSequences: 0, MeanIntraGapSec: 13.5},
		},
		Suspects: []string{"Ethermine"},
	}
	out := render(func(sb *strings.Builder) { Withholding(sb, r) })
	for _, want := range []string{"WITHHOLDING SUSPECTS", "Ethermine", "13.5s"} {
		if !strings.Contains(out, want) {
			t.Errorf("withholding missing %q in:\n%s", want, out)
		}
	}
	r.Suspects = nil
	out = render(func(sb *strings.Builder) { Withholding(sb, r) })
	if !strings.Contains(out, "no pool shows the withholding signature") {
		t.Error("clean verdict not rendered")
	}
}

func TestGeoDelayRendering(t *testing.T) {
	r := &analysis.GeoDelayResult{
		Vantages: []string{"NA", "EA"},
		MedianMs: map[string]float64{"NA": 95, "EA": 20},
		P90Ms:    map[string]float64{"NA": 180, "EA": 60},
		Samples:  map[string]int{"NA": 400, "EA": 120},
		Blocks:   500,
	}
	out := render(func(sb *strings.Builder) { GeoDelay(sb, r) })
	for _, want := range []string{"95ms", "180ms", "NA", "drill-down"} {
		if !strings.Contains(out, want) {
			t.Errorf("geodelay missing %q in:\n%s", want, out)
		}
	}
}

func TestFeeMarketRendering(t *testing.T) {
	r := &analysis.FeeMarketResult{
		Bands: []analysis.FeeBandRow{
			{Label: "reservoir (1-3)", Txs: 100, InclusionP50: 90, InclusionP90: 300},
			{Label: "premium (40+)", Txs: 50, InclusionP50: 7, InclusionP90: 20},
		},
		MedianTrendDecreasing: true,
	}
	out := render(func(sb *strings.Builder) { FeeMarket(sb, r) })
	for _, want := range []string{"reservoir (1-3)", "premium (40+)", "90s", "higher fees commit faster"} {
		if !strings.Contains(out, want) {
			t.Errorf("feemarket missing %q in:\n%s", want, out)
		}
	}
}
