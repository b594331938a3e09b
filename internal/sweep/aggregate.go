package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"

	"ethmeasure/internal/stats"
)

// MetricSummary is the cross-seed statistics of one metric within one
// scenario: the confidence-interval answer to the paper's single-run
// point estimate.
type MetricSummary struct {
	Metric string  `json:"metric"`
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// CI95 is the half-width of the two-sided 95% Student-t confidence
	// interval of the mean; CILo/CIHi are the resulting bounds.
	CI95 float64 `json:"ci95"`
	CILo float64 `json:"ci_lo"`
	CIHi float64 `json:"ci_hi"`
}

// ScenarioSummary aggregates every seed of one axis-variant combination.
type ScenarioSummary struct {
	Scenario string          `json:"scenario"`
	Seeds    []int64         `json:"seeds"`
	Runs     int             `json:"runs"`
	Failed   int             `json:"failed"`
	Skipped  int             `json:"skipped"`
	Metrics  []MetricSummary `json:"metrics"`
}

// AggregateResult is the cross-seed summary of a whole sweep. It is a
// pure function of the per-run metrics in matrix expansion order, so a
// parallel sweep aggregates byte-identically to a serial one. Wall
// times deliberately stay out (they vary run to run); find them on the
// individual RunResults.
type AggregateResult struct {
	Scenarios []ScenarioSummary `json:"scenarios"`
	Runs      int               `json:"runs"`
	Failed    int               `json:"failed"`
	// Skipped counts runs that cancellation skipped or cut short; they
	// did not fail, so they add no Errors.
	Skipped int `json:"skipped"`
	// Errors lists failed runs' messages in run-index order.
	Errors []string `json:"errors,omitempty"`
}

// Aggregate folds per-run results into per-scenario cross-seed
// summaries. Results are grouped by scenario in first-appearance
// (matrix expansion) order; within a scenario, metrics are sorted by
// name. Failed and skipped runs contribute no metric observations;
// a run is skipped when its Err is the sweep context's cancellation
// (context.Canceled or DeadlineExceeded, as Runner.Run records it).
func Aggregate(results []RunResult) *AggregateResult {
	agg := &AggregateResult{Runs: len(results)}
	type group struct {
		seeds   []int64
		runs    int
		failed  int
		skipped int
		summary map[string]*stats.Summary
	}
	var order []string
	groups := make(map[string]*group)

	for i := range results {
		r := &results[i]
		g := groups[r.Run.Scenario]
		if g == nil {
			g = &group{summary: make(map[string]*stats.Summary)}
			groups[r.Run.Scenario] = g
			order = append(order, r.Run.Scenario)
		}
		g.runs++
		g.seeds = append(g.seeds, r.Run.Seed)
		if errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded) {
			g.skipped++
			agg.Skipped++
			continue
		}
		if !r.Ok() {
			g.failed++
			agg.Failed++
			if r.Err != nil {
				agg.Errors = append(agg.Errors, r.Err.Error())
			}
			continue
		}
		for name, v := range r.Metrics {
			s := g.summary[name]
			if s == nil {
				s = &stats.Summary{}
				g.summary[name] = s
			}
			s.Add(v)
		}
	}

	for _, scenario := range order {
		g := groups[scenario]
		ss := ScenarioSummary{
			Scenario: scenario,
			Seeds:    g.seeds,
			Runs:     g.runs,
			Failed:   g.failed,
			Skipped:  g.skipped,
		}
		names := make([]string, 0, len(g.summary))
		for name := range g.summary {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			s := g.summary[name]
			ci := s.CI95()
			if math.IsNaN(ci) {
				ci = 0
			}
			ss.Metrics = append(ss.Metrics, MetricSummary{
				Metric: name,
				N:      s.N(),
				Mean:   s.Mean(),
				StdDev: s.StdDev(),
				Min:    s.Min(),
				Max:    s.Max(),
				CI95:   ci,
				CILo:   s.Mean() - ci,
				CIHi:   s.Mean() + ci,
			})
		}
		agg.Scenarios = append(agg.Scenarios, ss)
	}
	return agg
}

// WriteJSON renders the aggregate as indented JSON.
func (a *AggregateResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// WriteText renders the aggregate as an aligned mean ± CI table.
func (a *AggregateResult) WriteText(w io.Writer) {
	fmt.Fprintf(w, "sweep aggregate: %d runs, %d failed, %d skipped, %d scenarios\n",
		a.Runs, a.Failed, a.Skipped, len(a.Scenarios))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, s := range a.Scenarios {
		fmt.Fprintf(tw, "\nscenario %s\t(%d seeds, %d failed, %d skipped)\t\t\n", s.Scenario, s.Runs, s.Failed, s.Skipped)
		fmt.Fprintf(tw, "  metric\tmean ± 95%% CI\tstddev\t[min, max]\n")
		for _, m := range s.Metrics {
			fmt.Fprintf(tw, "  %s\t%.4g ± %.2g\t%.2g\t[%.4g, %.4g]\n",
				m.Metric, m.Mean, m.CI95, m.StdDev, m.Min, m.Max)
		}
	}
	tw.Flush()
	for _, e := range a.Errors {
		fmt.Fprintf(w, "error: %s\n", e)
	}
}
