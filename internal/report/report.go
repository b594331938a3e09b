// Package report renders analysis results as text tables and plots —
// the same rows and series the paper's tables and figures present, in
// terminal-friendly form.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/measure"
)

const barWidth = 40

// Table renders rows with aligned columns and a header rule.
func Table(w io.Writer, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
			} else {
				parts[i] = cell
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(headers)
	total := len(headers) - 1
	for _, width := range widths {
		total += width + 1
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, row := range rows {
		line(row)
	}
}

// bar renders a proportional bar for a fraction in [0,1].
func bar(frac float64) string {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	n := int(frac*barWidth + 0.5)
	return strings.Repeat("#", n)
}

// TableI renders the measurement infrastructure specification.
func TableI(w io.Writer, specs []measure.MachineSpec) {
	fmt.Fprintln(w, "Table I: Specifications of the measurement infrastructure")
	rows := make([][]string, 0, len(specs))
	for _, s := range specs {
		rows = append(rows, []string{
			s.Location, s.CPU,
			fmt.Sprintf("%d", s.RAMGB),
			fmt.Sprintf("%d", s.BandwidthGbps),
		})
	}
	Table(w, []string{"Location", "CPU", "RAM(GB)", "Bandwidth(Gbps)"}, rows)
}

// Figure1 renders the block propagation delay analysis.
func Figure1(w io.Writer, r *analysis.PropagationResult) {
	fmt.Fprintln(w, "Figure 1: Histogram of times since the first block announcement")
	fmt.Fprintf(w, "blocks=%d  samples=%d\n", r.Blocks, r.DelaysMs.N())
	fmt.Fprintf(w, "median=%.0fms  mean=%.0fms  p95=%.0fms  p99=%.0fms  (paper: 74/109/211/317)\n",
		r.MedianMs, r.MeanMs, r.P95Ms, r.P99Ms)
	fmt.Fprintf(w, "inter-block time is %.0fx the mean propagation delay\n", r.InterBlockRatio)
	h := r.Histogram
	maxDensity := 0.0
	for i := range h.Buckets {
		if d := h.Density(i); d > maxDensity {
			maxDensity = d
		}
	}
	if maxDensity == 0 {
		return
	}
	for i := range h.Buckets {
		lo, hi := h.BucketBounds(i)
		d := h.Density(i)
		if d == 0 && lo > 350 {
			continue
		}
		fmt.Fprintf(w, "%4.0f-%4.0fms %5.1f%% %s\n", lo, hi, d*100, bar(d/maxDensity))
	}
	if h.Overflow > 0 {
		fmt.Fprintf(w, "   >%4.0fms %5.1f%%\n", h.Hi, float64(h.Overflow)/float64(h.Total())*100)
	}
}

// TableII renders the block-reception redundancy analysis.
func TableII(w io.Writer, r *analysis.RedundancyResult) {
	fmt.Fprintln(w, "Table II: Redundant block receptions (default-peer node)")
	fmt.Fprintf(w, "vantage=%s  blocks=%d  gossip-optimal ln(n)=%.2f\n", r.Vantage, r.Blocks, r.OptimalLn)
	rows := [][]string{}
	for _, row := range []analysis.RedundancyRow{r.Announcements, r.WholeBlocks, r.Combined} {
		rows = append(rows, []string{
			row.MessageType,
			fmt.Sprintf("%.3f", row.Avg),
			fmt.Sprintf("%.0f", row.Median),
			fmt.Sprintf("%.0f", row.Top10),
			fmt.Sprintf("%.0f", row.Top1),
		})
	}
	Table(w, []string{"Message Type", "Avg.", "Med.", "Top 10%", "Top 1%"}, rows)
	fmt.Fprintln(w, "(paper: announcements 2.585/2/5/7, whole blocks 7.043/7/10/12, combined 9.11/9/12/15)")
}

// Figure2 renders first-observation shares per vantage.
func Figure2(w io.Writer, r *analysis.FirstObservationResult) {
	fmt.Fprintln(w, "Figure 2: First new block observations per vantage")
	fmt.Fprintf(w, "blocks=%d  within-NTP-error ties=%.1f%%\n", r.Blocks, r.UncertainShare*100)
	for _, v := range r.Vantages {
		share := r.Shares[v]
		fmt.Fprintf(w, "%-16s %5.1f%% %s\n", v, share*100, bar(share))
	}
	fmt.Fprintln(w, "(paper: Eastern Asia ~40%, North America ~4x less)")
}

// Figure3 renders per-pool first-observation shares per vantage.
func Figure3(w io.Writer, r *analysis.PoolGeographyResult) {
	fmt.Fprintln(w, "Figure 3: First new block observation by origin mining pool")
	headers := append([]string{"Pool (power)"}, r.Vantages...)
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := []string{fmt.Sprintf("%s (%.2f%%)", row.Pool, row.PowerShare*100)}
		for _, v := range r.Vantages {
			cells = append(cells, fmt.Sprintf("%5.1f%%", row.Shares[v]*100))
		}
		rows = append(rows, cells)
	}
	Table(w, headers, rows)
}

// Figure4 renders transaction inclusion and confirmation CDFs.
func Figure4(w io.Writer, r *analysis.CommitTimeResult) {
	fmt.Fprintln(w, "Figure 4: Transaction inclusion and commit times (seconds)")
	fmt.Fprintf(w, "committed txs=%d  median 12-conf=%.0fs (paper: 189s)\n", r.CommittedTxs, r.Median12Sec)
	headers := []string{"Percentile", "inclusion"}
	levels := append([]int(nil), analysis.ConfirmationLevels...)
	sort.Ints(levels)
	for _, k := range levels {
		headers = append(headers, fmt.Sprintf("%d conf", k))
	}
	var rows [][]string
	for _, q := range []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.99} {
		cells := []string{fmt.Sprintf("p%.0f", q*100)}
		cells = append(cells, fmt.Sprintf("%.0f", r.InclusionSec.MustQuantile(q)))
		for _, k := range levels {
			cells = append(cells, fmt.Sprintf("%.0f", r.ConfirmSec[k].MustQuantile(q)))
		}
		rows = append(rows, cells)
	}
	Table(w, headers, rows)
}

// Figure5 renders commit delay split by reception order.
func Figure5(w io.Writer, r *analysis.OrderingResult) {
	fmt.Fprintln(w, "Figure 5: Commit delay by transaction reception order (seconds)")
	fmt.Fprintf(w, "committed=%d  out-of-order=%d (%.2f%%, paper: 11.54%%)\n",
		r.CommittedTxs, r.OutOfOrderTxs, r.OutOfOrderShare*100)
	rows := [][]string{
		{"in-order", fmt.Sprintf("%.0f", r.InOrderP50), fmt.Sprintf("%.0f", r.InOrderP90)},
		{"out-of-order", fmt.Sprintf("%.0f", r.OutOfOrderP50), fmt.Sprintf("%.0f", r.OutOfOrderP90)},
	}
	Table(w, []string{"Ordering", "p50", "p90"}, rows)
	fmt.Fprintln(w, "(paper: in-order 189/292s, out-of-order <192/<325s)")
}

// Figure6 renders empty blocks per pool.
func Figure6(w io.Writer, r *analysis.EmptyBlocksResult) {
	fmt.Fprintln(w, "Figure 6: Empty blocks per mining pool")
	fmt.Fprintf(w, "main blocks=%d  empty=%d (%.2f%%, paper: 1.45%%)\n",
		r.MainBlocks, r.EmptyBlocks, r.EmptyShare*100)
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Pool,
			fmt.Sprintf("%d", row.EmptyBlocks),
			fmt.Sprintf("%d", row.TotalBlocks),
			fmt.Sprintf("%.2f%%", row.EmptyRate*100),
		})
	}
	Table(w, []string{"Pool", "Empty", "Total", "Empty rate"}, rows)
}

// TableIII renders fork classification.
func TableIII(w io.Writer, r *analysis.ForksResult) {
	fmt.Fprintln(w, "Table III: Fork types and lengths")
	fmt.Fprintf(w, "blocks=%d  main=%.2f%%  recognized uncles=%.2f%%  unrecognized=%.2f%%\n",
		r.TotalBlocks, r.MainShare*100, r.RecognizedShare*100, r.UnrecognizedShare*100)
	fmt.Fprintln(w, "(paper: 92.81% / 6.97% / 0.22%)")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			fmt.Sprintf("%d", row.Length),
			fmt.Sprintf("%d", row.Total),
			fmt.Sprintf("%d", row.Recognized),
			fmt.Sprintf("%d", row.Unrecognized),
		})
	}
	Table(w, []string{"Fork Length", "Total", "Recognized", "Unrecognized"}, rows)
	fmt.Fprintln(w, "(paper: len-1 15,171 (15,100 rec.), len-2 404 (0 rec.), len-3 10 (0 rec.))")
}

// OneMinerForks renders the §III-C5 analysis.
func OneMinerForks(w io.Writer, r *analysis.OneMinerForksResult) {
	fmt.Fprintln(w, "One-miner forks (single miner, several blocks at one height)")
	fmt.Fprintf(w, "events=%d  sibling blocks=%d  recognized-as-uncle=%.0f%% (paper: 98%%)\n",
		r.Events, r.SiblingBlocks, r.RecognizedShare*100)
	fmt.Fprintf(w, "same-tx-set events=%.0f%% (paper: 56%%)  share of all forks=%.1f%% (paper: >11%%)\n",
		r.SameTxShare*100, r.ShareOfAllForks*100)
	rows := make([][]string, 0, len(r.Tuples))
	for _, t := range r.Tuples {
		rows = append(rows, []string{fmt.Sprintf("%d-tuple", t.Size), fmt.Sprintf("%d", t.Count)})
	}
	Table(w, []string{"Tuple size", "Count"}, rows)
	fmt.Fprintln(w, "(paper: 1,750 pairs, 25 triples, one 4-tuple, one 7-tuple)")
}

// Figure7 renders consecutive-block sequences per pool.
func Figure7(w io.Writer, r *analysis.SequencesResult) {
	fmt.Fprintln(w, "Figure 7: Consecutive main-chain blocks mined by a single pool")
	fmt.Fprintf(w, "main blocks=%d  longest run=%d by %s  censorship window=%.0fs\n",
		r.MainBlocks, r.LongestRun, r.LongestPool, r.CensorWindowSec)
	headers := []string{"Pool (power)", "runs", "max"}
	for _, q := range []float64{0.9, 0.99, 0.999} {
		headers = append(headers, fmt.Sprintf("len@%.3g", q))
	}
	headers = append(headers, "E[runs>=max] (n*p^k)")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := []string{
			fmt.Sprintf("%s (%.1f%%)", row.Pool, row.PowerShare*100),
			fmt.Sprintf("%d", row.Runs),
			fmt.Sprintf("%d", row.MaxRun),
		}
		for _, q := range []float64{0.9, 0.99, 0.999} {
			cells = append(cells, fmt.Sprintf("%d", lengthAtQuantile(row, q)))
		}
		cells = append(cells, fmt.Sprintf("%.2f", row.TheoreticalAtMax))
		rows = append(rows, cells)
	}
	Table(w, headers, rows)
}

// lengthAtQuantile finds the smallest run length L with CDF(L) ≥ q.
func lengthAtQuantile(row analysis.PoolSequenceRow, q float64) int {
	for l := 1; l <= row.MaxRun; l++ {
		if row.CDF(l) >= q {
			return l
		}
	}
	return row.MaxRun
}

// TxPropagation renders the transaction-geography analysis.
func TxPropagation(w io.Writer, r *analysis.TxPropagationResult) {
	fmt.Fprintln(w, "Transaction propagation by geography (paper §III-A1)")
	fmt.Fprintf(w, "txs=%d  first-observation share spread=%.1f%%\n", r.Txs, r.FirstShareSpread*100)
	rows := make([][]string, 0, len(r.Vantages))
	for _, v := range r.Vantages {
		rows = append(rows, []string{
			v,
			fmt.Sprintf("%.1f%%", r.FirstShares[v]*100),
			fmt.Sprintf("%.0fms", r.MedianDelayMs[v]),
		})
	}
	Table(w, []string{"Vantage", "First share", "Median delay"}, rows)
	fmt.Fprintln(w, "(paper: no geographic effect within NTP measurement error)")
}
