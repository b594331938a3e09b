package report

import (
	"strings"
	"testing"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/measure"
	"ethmeasure/internal/stats"
)

func render(fn func(*strings.Builder)) string {
	var sb strings.Builder
	fn(&sb)
	return sb.String()
}

// sampleOf builds a sample the way the analyses do, one Add at a time.
func sampleOf(xs ...float64) *stats.Sample {
	s := stats.NewSample(len(xs))
	for _, x := range xs {
		s.Add(x)
	}
	return s
}

func TestTableAlignment(t *testing.T) {
	out := render(func(sb *strings.Builder) {
		Table(sb, []string{"Name", "Value"}, [][]string{
			{"short", "1"},
			{"a-much-longer-name", "22"},
		})
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "Name") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("rule = %q", lines[1])
	}
	// The value column must start at the same offset in both rows.
	idx2 := strings.Index(lines[2], "1")
	idx3 := strings.Index(lines[3], "22")
	if idx3 > idx2 {
		t.Errorf("columns misaligned: %q vs %q", lines[2], lines[3])
	}
}

func TestTableI(t *testing.T) {
	out := render(func(sb *strings.Builder) { TableI(sb, measure.PaperInfrastructure()) })
	for _, want := range []string{"Table I", "NA", "EA", "CE", "WE", "RAM(GB)", "40x Intel Xeon"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestFigure1Rendering(t *testing.T) {
	sample := sampleOf(50, 74, 74, 90, 200)
	hist, _ := stats.NewHistogram(0, 500, 50)
	for _, v := range sample.Values() {
		hist.Add(v)
	}
	r := &analysis.PropagationResult{
		DelaysMs:  sample,
		Histogram: hist,
		MedianMs:  74, MeanMs: 97.6, P95Ms: 178, P99Ms: 195.6,
		Blocks: 3, InterBlockRatio: 136,
	}
	out := render(func(sb *strings.Builder) { Figure1(sb, r) })
	for _, want := range []string{"Figure 1", "median=74ms", "paper: 74/109/211/317", "%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 1 missing %q in:\n%s", want, out)
		}
	}
}

func TestFigure1EmptyHistogram(t *testing.T) {
	hist, _ := stats.NewHistogram(0, 500, 10)
	r := &analysis.PropagationResult{DelaysMs: stats.NewSample(0), Histogram: hist}
	out := render(func(sb *strings.Builder) { Figure1(sb, r) })
	if !strings.Contains(out, "Figure 1") {
		t.Error("empty result should still render a header")
	}
}

func TestTableIIRendering(t *testing.T) {
	r := &analysis.RedundancyResult{
		Vantage: "WE-default", Blocks: 500, OptimalLn: 9.62,
		Announcements: analysis.RedundancyRow{MessageType: "Announcements", Avg: 2.585, Median: 2, Top10: 5, Top1: 7},
		WholeBlocks:   analysis.RedundancyRow{MessageType: "Whole Blocks", Avg: 7.043, Median: 7, Top10: 10, Top1: 12},
		Combined:      analysis.RedundancyRow{MessageType: "Both combined", Avg: 9.11, Median: 9, Top10: 12, Top1: 15},
	}
	out := render(func(sb *strings.Builder) { TableII(sb, r) })
	for _, want := range []string{"Table II", "2.585", "7.043", "9.110", "ln(n)=9.62"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table II missing %q in:\n%s", want, out)
		}
	}
}

func TestFigure2Rendering(t *testing.T) {
	r := &analysis.FirstObservationResult{
		Vantages: []string{"NA", "EA"},
		Shares:   map[string]float64{"NA": 0.1, "EA": 0.4},
		Counts:   map[string]int{"NA": 10, "EA": 40},
		Blocks:   100, UncertainShare: 0.15,
	}
	out := render(func(sb *strings.Builder) { Figure2(sb, r) })
	for _, want := range []string{"Figure 2", "EA", "40.0%", "ties=15.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 2 missing %q", want)
		}
	}
}

func TestFigure3Rendering(t *testing.T) {
	r := &analysis.PoolGeographyResult{
		Vantages: []string{"NA", "EA"},
		Rows: []analysis.PoolGeographyRow{{
			Pool: "Sparkpool", PowerShare: 0.2288, Blocks: 100,
			Shares: map[string]float64{"NA": 0.05, "EA": 0.8},
		}},
		Blocks: 100,
	}
	out := render(func(sb *strings.Builder) { Figure3(sb, r) })
	for _, want := range []string{"Figure 3", "Sparkpool (22.88%)", "80.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 3 missing %q in:\n%s", want, out)
		}
	}
}

func TestFigure4And5Rendering(t *testing.T) {
	commit := &analysis.CommitTimeResult{
		InclusionSec: sampleOf(10, 20),
		ConfirmSec: map[int]*stats.Sample{
			3:  sampleOf(50, 60),
			12: sampleOf(180, 190),
			15: sampleOf(220, 230),
			36: sampleOf(500, 510),
		},
		CommittedTxs: 2, Median12Sec: 185,
	}
	out := render(func(sb *strings.Builder) { Figure4(sb, commit) })
	for _, want := range []string{"Figure 4", "12 conf", "36 conf", "185", "p50"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 4 missing %q in:\n%s", want, out)
		}
	}
	ordering := &analysis.OrderingResult{
		InOrderSec:    sampleOf(189),
		OutOfOrderSec: sampleOf(192),
		CommittedTxs:  100, OutOfOrderTxs: 11, OutOfOrderShare: 0.1154,
		InOrderP50: 189, InOrderP90: 292, OutOfOrderP50: 192, OutOfOrderP90: 325,
	}
	out = render(func(sb *strings.Builder) { Figure5(sb, ordering) })
	for _, want := range []string{"Figure 5", "11.54%", "out-of-order", "292"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 5 missing %q", want)
		}
	}
}

func TestFigure6Rendering(t *testing.T) {
	r := &analysis.EmptyBlocksResult{
		Rows: []analysis.EmptyBlocksRow{
			{Pool: "Zhizhu", EmptyBlocks: 440, TotalBlocks: 1700, EmptyRate: 0.2588},
		},
		MainBlocks: 201086, EmptyBlocks: 2921, EmptyShare: 0.0145,
	}
	out := render(func(sb *strings.Builder) { Figure6(sb, r) })
	for _, want := range []string{"Figure 6", "Zhizhu", "25.88%", "1.45%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 6 missing %q", want)
		}
	}
}

func TestTableIIIRendering(t *testing.T) {
	r := &analysis.ForksResult{
		Rows: []analysis.ForkLengthRow{
			{Length: 1, Total: 15171, Recognized: 15100, Unrecognized: 71},
			{Length: 2, Total: 404, Recognized: 0, Unrecognized: 404},
		},
		TotalBlocks: 216671, MainBlocks: 201086,
		MainShare: 0.9281, RecognizedShare: 0.0697, UnrecognizedShare: 0.0022,
		TotalForks: 15575,
	}
	out := render(func(sb *strings.Builder) { TableIII(sb, r) })
	for _, want := range []string{"Table III", "15171", "404", "92.81%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table III missing %q", want)
		}
	}
}

func TestOneMinerForksRendering(t *testing.T) {
	r := &analysis.OneMinerForksResult{
		Tuples: []analysis.OneMinerTupleRow{{Size: 2, Count: 1750}, {Size: 7, Count: 1}},
		Events: 1777, SiblingBlocks: 1800,
		RecognizedShare: 0.98, SameTxShare: 0.56, ShareOfAllForks: 0.115,
		TopPoolEvents: map[string]int{"Ethermine": 500},
	}
	out := render(func(sb *strings.Builder) { OneMinerForks(sb, r) })
	for _, want := range []string{"2-tuple", "7-tuple", "98%", "56%", "11.5%"} {
		if !strings.Contains(out, want) {
			t.Errorf("one-miner render missing %q in:\n%s", want, out)
		}
	}
}

func TestFigure7Rendering(t *testing.T) {
	counts := map[int]int{1: 100, 2: 30, 8: 4}
	r := &analysis.SequencesResult{
		Rows: []analysis.PoolSequenceRow{{
			Pool: "Ethermine", PowerShare: 0.259, Runs: 134, MaxRun: 8,
			RunCounts: counts,
			CDF: func(l int) float64 {
				c := 0
				for k, v := range counts {
					if k <= l {
						c += v
					}
				}
				return float64(c) / 134
			},
			TheoreticalAtMax: 4.05,
		}},
		MainBlocks: 201086, LongestRun: 9, LongestPool: "Sparkpool",
		CensorWindowSec: 120,
	}
	out := render(func(sb *strings.Builder) { Figure7(sb, r) })
	for _, want := range []string{"Figure 7", "Ethermine (25.9%)", "censorship window=120s", "4.05"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 7 missing %q in:\n%s", want, out)
		}
	}
}

func TestTxPropagationRendering(t *testing.T) {
	r := &analysis.TxPropagationResult{
		Vantages:         []string{"NA", "EA"},
		FirstShares:      map[string]float64{"NA": 0.26, "EA": 0.24},
		MedianDelayMs:    map[string]float64{"NA": 8, "EA": 9},
		DelaysMs:         sampleOf(8, 9),
		Txs:              1000,
		FirstShareSpread: 0.02,
	}
	out := render(func(sb *strings.Builder) { TxPropagation(sb, r) })
	for _, want := range []string{"Transaction propagation", "NA", "8ms", "no geographic effect"} {
		if !strings.Contains(out, want) {
			t.Errorf("tx propagation missing %q", want)
		}
	}
}

func TestLengthAtQuantile(t *testing.T) {
	row := analysis.PoolSequenceRow{
		MaxRun: 3,
		CDF: func(l int) float64 {
			switch {
			case l >= 3:
				return 1
			case l == 2:
				return 0.9
			default:
				return 0.5
			}
		},
	}
	if got := lengthAtQuantile(row, 0.9); got != 2 {
		t.Errorf("lengthAtQuantile(0.9) = %d", got)
	}
	if got := lengthAtQuantile(row, 0.99); got != 3 {
		t.Errorf("lengthAtQuantile(0.99) = %d", got)
	}
}
