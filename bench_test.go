// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§III), plus ablations over the design choices DESIGN.md
// calls out. Each benchmark runs a full scaled-down campaign and
// reports the headline statistics of its table/figure as custom
// metrics, so `go test -bench=.` regenerates every row/series the
// paper reports. EXPERIMENTS.md records paper-vs-measured values.
//
// Absolute numbers come from a simulated substrate, so the comparison
// target is the paper's *shape*: who wins, by what factor, where the
// distributions sit.
package ethmeasure

import (
	"context"
	"testing"
	"time"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/core"
	"ethmeasure/internal/measure"
)

// benchBlocksConfig is the campaign for block-centric experiments
// (Figures 1-3, Tables II-III): no transaction workload, one virtual
// hour, mid-size network.
func benchBlocksConfig(seed int64) Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = time.Hour
	cfg.NumNodes = 150
	cfg.OutDegree = 7
	for i := range cfg.Vantages {
		if cfg.Vantages[i].Peers > 50 {
			cfg.Vantages[i].Peers = 50
		}
	}
	cfg.EnableTxWorkload = false
	return cfg
}

// benchTxConfig is the campaign for transaction-centric experiments
// (Figures 4-6): smaller network, with workload.
func benchTxConfig(seed int64) Config {
	cfg := core.QuickConfig()
	cfg.Seed = seed
	cfg.Duration = time.Hour
	cfg.NumNodes = 100
	cfg.OutDegree = 6
	return cfg
}

// mustScenario parses a scenario spec or fails the benchmark.
func mustScenario(b *testing.B, spec string) ScenarioSpec {
	b.Helper()
	s, err := ParseScenario(spec)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func runCampaign(b *testing.B, cfg Config) *Results {
	b.Helper()
	campaign, err := NewCampaign(cfg)
	if err != nil {
		b.Fatal(err)
	}
	results, err := campaign.RunContext(context.Background(), RunOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return results
}

// BenchmarkTableIInfrastructure regenerates Table I (the measurement
// machine specifications) — configuration rendering only.
func BenchmarkTableIInfrastructure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		specs := measure.PaperInfrastructure()
		if len(specs) != 4 {
			b.Fatal("infrastructure must list 4 machines")
		}
	}
	b.ReportMetric(4, "machines")
}

// BenchmarkFigure1BlockPropagationDelay regenerates Figure 1: the
// distribution of block propagation delays across vantages.
// Paper: median 74 ms, mean 109 ms, p95 211 ms, p99 317 ms.
func BenchmarkFigure1BlockPropagationDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runCampaign(b, benchBlocksConfig(int64(i)+1))
		p := res.Propagation
		b.ReportMetric(p.MedianMs, "ms-median")
		b.ReportMetric(p.MeanMs, "ms-mean")
		b.ReportMetric(p.P95Ms, "ms-p95")
		b.ReportMetric(p.P99Ms, "ms-p99")
		if p.MedianMs <= 0 || p.MedianMs > 1000 {
			b.Fatalf("median %f ms outside plausible range", p.MedianMs)
		}
		// Shape: propagation orders of magnitude below inter-block time.
		if p.InterBlockRatio < 20 {
			b.Fatalf("inter-block ratio %f too small", p.InterBlockRatio)
		}
	}
}

// BenchmarkTableIIRedundancy regenerates Table II: redundant block
// receptions at a default-peers (25) node.
// Paper: announcements 2.585 avg, whole blocks 7.043, combined 9.11;
// whole blocks dominate announcements.
func BenchmarkTableIIRedundancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runCampaign(b, benchBlocksConfig(int64(i)+1))
		r := res.Redundancy
		b.ReportMetric(r.Announcements.Avg, "announces-avg")
		b.ReportMetric(r.WholeBlocks.Avg, "fullblocks-avg")
		b.ReportMetric(r.Combined.Avg, "combined-avg")
		if r.WholeBlocks.Avg <= r.Announcements.Avg {
			b.Fatal("shape violated: direct pushes must dominate announcements")
		}
		if r.Combined.Avg < 4 || r.Combined.Avg > 16 {
			b.Fatalf("combined redundancy %f outside paper's regime", r.Combined.Avg)
		}
	}
}

// BenchmarkFigure2FirstObservation regenerates Figure 2: first new
// block observations per vantage.
// Paper: EA ≈ 40%, NA ≈ 4x less, WE/CE between.
func BenchmarkFigure2FirstObservation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runCampaign(b, benchBlocksConfig(int64(i)+1))
		f := res.FirstObs
		b.ReportMetric(f.Shares["EA"]*100, "EA-first-%")
		b.ReportMetric(f.Shares["NA"]*100, "NA-first-%")
		b.ReportMetric(f.Shares["WE"]*100, "WE-first-%")
		b.ReportMetric(f.Shares["CE"]*100, "CE-first-%")
		if f.Shares["EA"] <= f.Shares["NA"] {
			b.Fatal("shape violated: EA must observe first more often than NA")
		}
	}
}

// BenchmarkFigure3PoolGeography regenerates Figure 3: per-pool
// first-observation affinity. Paper: Asian pools' blocks observed
// first in EA with strong affinity; Ethermine/Nanopool in Europe.
func BenchmarkFigure3PoolGeography(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runCampaign(b, benchBlocksConfig(int64(i)+1))
		var sparkEA, etherEU float64
		for _, row := range res.PoolGeo.Rows {
			switch row.Pool {
			case "Sparkpool":
				sparkEA = row.Shares["EA"]
			case "Ethermine":
				etherEU = row.Shares["WE"] + row.Shares["CE"]
			}
		}
		b.ReportMetric(sparkEA*100, "Sparkpool-EA-%")
		b.ReportMetric(etherEU*100, "Ethermine-EU-%")
		if sparkEA < 0.4 {
			b.Fatalf("Sparkpool EA affinity %.2f too weak", sparkEA)
		}
		if etherEU < 0.3 {
			b.Fatalf("Ethermine EU affinity %.2f too weak", etherEU)
		}
	}
}

// BenchmarkFigure4CommitTime regenerates Figure 4: transaction
// inclusion and k-confirmation commit CDFs.
// Paper: median 12-confirmation commit 189 s.
func BenchmarkFigure4CommitTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runCampaign(b, benchTxConfig(int64(i)+1))
		c := res.Commit
		b.ReportMetric(c.InclusionSec.MustQuantile(0.5), "s-inclusion-p50")
		b.ReportMetric(c.ConfirmSec[3].MustQuantile(0.5), "s-3conf-p50")
		b.ReportMetric(c.Median12Sec, "s-12conf-p50")
		b.ReportMetric(c.ConfirmSec[36].MustQuantile(0.5), "s-36conf-p50")
		// Shape: ~12 inter-block times plus inclusion ≈ 160-260 s.
		if c.Median12Sec < 150 || c.Median12Sec > 280 {
			b.Fatalf("12-conf median %f s outside paper regime (189 s)", c.Median12Sec)
		}
	}
}

// BenchmarkFigure5TransactionOrdering regenerates Figure 5: commit
// delay split by nonce-order of reception.
// Paper: 11.54% out-of-order; OOO commits slower (192/325 vs 189/292 s).
func BenchmarkFigure5TransactionOrdering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runCampaign(b, benchTxConfig(int64(i)+1))
		o := res.Ordering
		b.ReportMetric(o.OutOfOrderShare*100, "out-of-order-%")
		b.ReportMetric(o.InOrderP50, "s-inorder-p50")
		b.ReportMetric(o.OutOfOrderP50, "s-ooo-p50")
		if o.OutOfOrderShare < 0.03 || o.OutOfOrderShare > 0.30 {
			b.Fatalf("out-of-order share %.2f%% outside paper regime (11.54%%)", o.OutOfOrderShare*100)
		}
	}
}

// BenchmarkFigure6EmptyBlocks regenerates Figure 6: empty blocks per
// mining pool. Paper: 1.45% of main blocks empty, concentrated in
// specific pools (Zhizhu > 25%).
func BenchmarkFigure6EmptyBlocks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchTxConfig(int64(i) + 1)
		cfg.Duration = 2 * time.Hour // more blocks for a rate statistic
		res := runCampaign(b, cfg)
		e := res.Empty
		b.ReportMetric(e.EmptyShare*100, "empty-%")
		b.ReportMetric(float64(e.EmptyBlocks), "empty-blocks")
		if e.EmptyShare > 0.08 {
			b.Fatalf("empty share %.2f%% far above paper's 1.45%%", e.EmptyShare*100)
		}
	}
}

// BenchmarkTableIIIForks regenerates Table III: fork lengths and
// recognition. Paper: 92.81% main / 6.97% recognized uncles / 0.22%
// unrecognized; length-1 forks dominate and are almost always
// recognized; no fork ≥ 2 ever recognized.
func BenchmarkTableIIIForks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchBlocksConfig(int64(i) + 1)
		cfg.Duration = 3 * time.Hour // fork statistics need volume
		res := runCampaign(b, cfg)
		f := res.Forks
		b.ReportMetric(f.MainShare*100, "main-%")
		b.ReportMetric(f.RecognizedShare*100, "recognized-%")
		b.ReportMetric(float64(f.TotalForks), "forks")
		if f.MainShare < 0.85 || f.MainShare > 0.99 {
			b.Fatalf("main share %.3f outside paper regime (0.9281)", f.MainShare)
		}
		for _, row := range f.Rows {
			if row.Length >= 2 && row.Recognized > 0 {
				b.Fatal("shape violated: forks of length ≥ 2 must never be recognized")
			}
		}
	}
}

// BenchmarkOneMinerForks regenerates §III-C5: single miners producing
// several blocks at one height. Paper: 1,750 pairs + 25 triples per
// month (~0.9% of blocks), rewarded as uncles in 98% of cases, 56%
// with identical transaction sets.
func BenchmarkOneMinerForks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchBlocksConfig(int64(i) + 1)
		cfg.Duration = 4 * time.Hour
		res := runCampaign(b, cfg)
		om := res.OneMiner
		b.ReportMetric(float64(om.Events), "events")
		b.ReportMetric(om.RecognizedShare*100, "recognized-%")
		b.ReportMetric(om.SameTxShare*100, "same-txset-%")
		if om.Events == 0 {
			b.Fatal("no one-miner forks observed over 4 virtual hours")
		}
	}
}

// BenchmarkFigure7MinerSequences regenerates Figure 7 and the §III-D
// security analysis via the chain-level fast simulator at full paper
// scale (201,086 main blocks) plus the 7.68M-block history scan.
// Paper: 8-block Ethermine runs ≈4x/month (matching n·p^k), Sparkpool
// 9-block runs, historical 102/41/4/1 runs of ≥10/11/12/14.
func BenchmarkFigure7MinerSequences(b *testing.B) {
	for i := 0; i < b.N; i++ {
		winners, names, err := FastWinners(PaperPools(), 201_086, int64(i)+2019)
		if err != nil {
			b.Fatal(err)
		}
		res := AnalyzeSequences(winners, names, 13.3, 6)
		b.ReportMetric(float64(res.LongestRun), "longest-run")
		b.ReportMetric(res.CensorWindowSec, "censor-window-s")
		if res.LongestRun < 7 || res.LongestRun > 13 {
			b.Fatalf("longest run %d outside paper regime (8-9)", res.LongestRun)
		}

		hist, _, err := HistoricalWinners(DefaultHistory(), int64(i)+99)
		if err != nil {
			b.Fatal(err)
		}
		counts := HistoricalSequenceCounts(hist, []int{10, 11, 12, 14})
		b.ReportMetric(float64(counts[10]), "hist-runs-ge10")
		b.ReportMetric(float64(counts[12]), "hist-runs-ge12")
		b.ReportMetric(float64(counts[14]), "hist-runs-ge14")
		if counts[10] < 20 || counts[10] > 400 {
			b.Fatalf("historical ≥10 runs = %d, outside paper's order of magnitude (102)", counts[10])
		}
	}
}

// BenchmarkTransactionPropagation regenerates §III-A1: transaction
// first observations show no meaningful geographic skew, unlike blocks.
func BenchmarkTransactionPropagation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := runCampaign(b, benchTxConfig(int64(i)+1))
		tp := res.TxProp
		b.ReportMetric(tp.FirstShareSpread*100, "tx-share-spread-%")
		b.ReportMetric(res.FirstObs.Shares["EA"]*100-res.FirstObs.Shares["NA"]*100, "block-EA-NA-gap-%")
		// Shape: tx spread far below the block-observation spread.
		blockSpread := res.FirstObs.Shares["EA"] - res.FirstObs.Shares["NA"]
		if tp.FirstShareSpread > blockSpread {
			b.Fatal("shape violated: tx geography skew should be below block skew")
		}
	}
}

// --- Ablations (design decisions called out in DESIGN.md §4) ---

// BenchmarkAblationAnnounceOnly disables Geth's sqrt direct push,
// leaving pure announce-and-fetch gossip: propagation slows by roughly
// the fetcher's arrive-timeout and whole-block receptions vanish —
// showing the push-before-import design is what makes Table II's
// full-block column dominate.
func BenchmarkAblationAnnounceOnly(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchBlocksConfig(int64(i) + 1)
		cfg.Duration = 30 * time.Minute
		cfg.P2P.SqrtPush = false
		res := runCampaign(b, cfg)
		b.ReportMetric(res.Propagation.MedianMs, "ms-median")
		b.ReportMetric(res.Redundancy.WholeBlocks.Avg, "fullblocks-avg")
		b.ReportMetric(res.Redundancy.Announcements.Avg, "announces-avg")
		if res.Redundancy.WholeBlocks.Avg > res.Redundancy.Announcements.Avg {
			b.Fatal("announce-only gossip cannot have push-dominated redundancy")
		}
	}
}

// BenchmarkAblationUniformGateways spreads every pool's gateways
// across all regions: the Eastern-Asia first-observation advantage of
// Figure 2 collapses, demonstrating it is caused by gateway geography.
func BenchmarkAblationUniformGateways(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchBlocksConfig(int64(i) + 1)
		cfg.Duration = 30 * time.Minute
		cfg.Pools = UniformGatewayPools()
		res := runCampaign(b, cfg)
		ea, na := res.FirstObs.Shares["EA"], res.FirstObs.Shares["NA"]
		b.ReportMetric(ea*100, "EA-first-%")
		b.ReportMetric(na*100, "NA-first-%")
		if na > 0 && ea/na > 2.5 {
			b.Fatalf("EA/NA advantage %.1fx survived uniform gateways", ea/na)
		}
	}
}

// BenchmarkAblationValidationDelay sweeps the block import cost: the
// fork rate (Table III) tracks the effective propagation+validation
// delay, the mechanism §III-C4 attributes fork-rate growth to.
func BenchmarkAblationValidationDelay(b *testing.B) {
	for _, importBase := range []time.Duration{100 * time.Millisecond, 450 * time.Millisecond, 1200 * time.Millisecond} {
		importBase := importBase
		b.Run(importBase.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchBlocksConfig(int64(i) + 1)
				cfg.Duration = 90 * time.Minute
				cfg.P2P.ImportBase = importBase
				res := runCampaign(b, cfg)
				b.ReportMetric((1-res.Forks.MainShare)*100, "fork-blocks-%")
			}
		})
	}
}

// BenchmarkAblationChurn enables node churn over the regular
// population: the relay protocol's redundancy (sqrt push + announce +
// fetch) keeps propagation delays close to the churn-free baseline,
// which is why the paper could measure a stable network despite the
// high peer turnover real deployments see.
func BenchmarkAblationChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchBlocksConfig(int64(i) + 1)
		cfg.Duration = 30 * time.Minute
		// ~25% of nodes cycling/hour.
		cfg.Scenarios = []ScenarioSpec{mustScenario(b, "churn:interval=20s,downtime=5m")}
		res := runCampaign(b, cfg)
		b.ReportMetric(res.Propagation.MedianMs, "ms-median")
		b.ReportMetric(res.Propagation.P99Ms, "ms-p99")
		b.ReportMetric((1-res.Forks.MainShare)*100, "fork-blocks-%")
		if res.Propagation.MedianMs > 500 {
			b.Fatalf("churn degraded median propagation to %.0fms", res.Propagation.MedianMs)
		}
	}
}

// BenchmarkExtensionFinality sweeps the k-block rule against the
// paper's pool distribution at month scale: single-pool windows exist
// at k=8-9 (the paper's observed runs) while the theoretical i.i.d.
// expectation says k=12 "should" be safe — the §III-D tension.
func BenchmarkExtensionFinality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		winners, names, err := FastWinners(PaperPools(), 201_086, int64(i)+7)
		if err != nil {
			b.Fatal(err)
		}
		res := analysis.FinalityFromWinners(winners, names, 14)
		b.ReportMetric(float64(res.TwelveBlockViolations), "12-block-violations")
		var at8, at9 int
		for _, row := range res.Rows {
			switch row.Depth {
			case 8:
				at8 = row.SinglePoolWindows
			case 9:
				at9 = row.SinglePoolWindows
			}
		}
		// Paper: Ethermine produced four 8-block runs in the month
		// (matching n·p^k ≈ 4); 9-block runs are borderline events.
		b.ReportMetric(float64(at8), "8-block-windows")
		b.ReportMetric(float64(at9), "9-block-windows")
		if at8 == 0 {
			b.Log("note: no 8-block single-pool window this seed (expectation ≈4-5)")
		}
	}
}

// BenchmarkExtensionWithholding runs the selfish block-withholding
// attack (Eyal-Sirer) on the largest pool and confirms the forensic
// the paper applied to Sparkpool's 9-block runs (§III-D): an actual
// attacker releases sequences "all together" and gets flagged, and its
// revenue share can exceed its power share.
func BenchmarkExtensionWithholding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchBlocksConfig(int64(i) + 1)
		cfg.Duration = 2 * time.Hour
		cfg.Scenarios = []ScenarioSpec{mustScenario(b, "withhold:pool=Ethermine,depth=3")}
		res := runCampaign(b, cfg)
		var burst, seq int
		for _, row := range res.Withholding.Rows {
			if row.Pool == "Ethermine" {
				burst, seq = row.BurstSequences, row.Sequences
			}
		}
		b.ReportMetric(float64(seq), "attacker-sequences")
		b.ReportMetric(float64(burst), "burst-releases")
		b.ReportMetric((1-res.Forks.MainShare)*100, "fork-blocks-%")
		if burst == 0 {
			b.Fatal("withholding attack left no burst signature")
		}
	}
}

// BenchmarkAblationHeadSwitch sweeps the pools' internal job-switch
// latency, the other half of the effective delay that sets the fork
// rate.
func BenchmarkAblationHeadSwitch(b *testing.B) {
	for _, headSwitch := range []time.Duration{100 * time.Millisecond, 600 * time.Millisecond, 2 * time.Second} {
		headSwitch := headSwitch
		b.Run(headSwitch.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchBlocksConfig(int64(i) + 1)
				cfg.Duration = 90 * time.Minute
				cfg.Mining.HeadSwitchMean = headSwitch
				res := runCampaign(b, cfg)
				b.ReportMetric((1-res.Forks.MainShare)*100, "fork-blocks-%")
			}
		})
	}
}
