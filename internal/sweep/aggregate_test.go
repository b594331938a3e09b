package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"ethmeasure/internal/analysis"
)

func metricRun(index int, scenario string, seed int64, metrics analysis.KeyMetrics) RunResult {
	return RunResult{
		Run:     Run{Index: index, Scenario: scenario, Seed: seed},
		Metrics: metrics,
	}
}

func TestAggregateCrossSeedStats(t *testing.T) {
	results := []RunResult{
		metricRun(0, "base", 1, analysis.KeyMetrics{"m": 10}),
		metricRun(1, "base", 2, analysis.KeyMetrics{"m": 12}),
		metricRun(2, "base", 3, analysis.KeyMetrics{"m": 14}),
		metricRun(3, "base", 4, analysis.KeyMetrics{"m": 16}),
	}
	agg := Aggregate(results)
	if agg.Runs != 4 || agg.Failed != 0 || len(agg.Scenarios) != 1 {
		t.Fatalf("agg = %+v", agg)
	}
	m := agg.Scenario("base").Metric("m")
	if m == nil {
		t.Fatal("metric missing")
	}
	if m.N != 4 || m.Mean != 13 || m.Min != 10 || m.Max != 16 {
		t.Errorf("summary = %+v", m)
	}
	// stddev of {10,12,14,16} = sqrt(20/3); CI95 = t(3) * sd / 2.
	sd := math.Sqrt(20.0 / 3.0)
	if math.Abs(m.StdDev-sd) > 1e-12 {
		t.Errorf("stddev = %f, want %f", m.StdDev, sd)
	}
	wantCI := 3.182 * sd / 2
	if math.Abs(m.CI95-wantCI) > 1e-9 {
		t.Errorf("ci95 = %f, want %f", m.CI95, wantCI)
	}
	if math.Abs(m.CILo-(13-wantCI)) > 1e-9 || math.Abs(m.CIHi-(13+wantCI)) > 1e-9 {
		t.Errorf("ci bounds = [%f, %f]", m.CILo, m.CIHi)
	}
}

func TestAggregateGroupsByScenarioInFirstAppearanceOrder(t *testing.T) {
	results := []RunResult{
		metricRun(0, "nodes=60", 1, analysis.KeyMetrics{"m": 1}),
		metricRun(1, "nodes=60", 2, analysis.KeyMetrics{"m": 3}),
		metricRun(2, "nodes=120", 1, analysis.KeyMetrics{"m": 5}),
		metricRun(3, "nodes=120", 2, analysis.KeyMetrics{"m": 7}),
	}
	agg := Aggregate(results)
	if len(agg.Scenarios) != 2 {
		t.Fatalf("scenarios = %d", len(agg.Scenarios))
	}
	if agg.Scenarios[0].Scenario != "nodes=60" || agg.Scenarios[1].Scenario != "nodes=120" {
		t.Errorf("scenario order = %q, %q", agg.Scenarios[0].Scenario, agg.Scenarios[1].Scenario)
	}
	if got := agg.Scenario("nodes=120").Metric("m").Mean; got != 6 {
		t.Errorf("nodes=120 mean = %f", got)
	}
	if s := agg.Scenario("nodes=60"); len(s.Seeds) != 2 || s.Seeds[0] != 1 {
		t.Errorf("seeds = %v", s.Seeds)
	}
}

func TestAggregateCountsFailuresAndSkipsTheirMetrics(t *testing.T) {
	failed := metricRun(1, "base", 2, nil)
	failed.Err = errors.New("boom")
	results := []RunResult{
		metricRun(0, "base", 1, analysis.KeyMetrics{"m": 10}),
		failed,
		metricRun(2, "base", 3, analysis.KeyMetrics{"m": 20}),
	}
	agg := Aggregate(results)
	if agg.Failed != 1 {
		t.Fatalf("failed = %d", agg.Failed)
	}
	if len(agg.Errors) != 1 || !strings.Contains(agg.Errors[0], "boom") {
		t.Errorf("errors = %v", agg.Errors)
	}
	m := agg.Scenario("base").Metric("m")
	if m.N != 2 || m.Mean != 15 {
		t.Errorf("failed run contaminated stats: %+v", m)
	}
}

// TestAggregateSkippedRunsAreNotFailures: slots that cancellation
// skipped (Err is the sweep context's error, as Runner.Run fills them)
// count as Skipped, not Failed, and list no error lines.
func TestAggregateSkippedRunsAreNotFailures(t *testing.T) {
	results := []RunResult{
		metricRun(0, "base", 1, analysis.KeyMetrics{"m": 10}),
		metricRun(1, "base", 2, nil),
		metricRun(2, "base", 3, nil),
		metricRun(3, "base", 4, nil),
	}
	results[1].Err = context.Canceled
	results[2].Err = context.Canceled
	results[3].Err = context.DeadlineExceeded
	agg := Aggregate(results)
	if agg.Failed != 0 || agg.Skipped != 3 || len(agg.Errors) != 0 {
		t.Fatalf("failed = %d, skipped = %d, errors = %v; want 0, 3, none", agg.Failed, agg.Skipped, agg.Errors)
	}
	s := agg.Scenario("base")
	if s.Runs != 4 || s.Failed != 0 || s.Skipped != 3 {
		t.Errorf("scenario summary = %+v", s)
	}
	if m := s.Metric("m"); m.N != 1 || m.Mean != 10 {
		t.Errorf("skipped runs contaminated stats: %+v", m)
	}
	var buf bytes.Buffer
	agg.WriteText(&buf)
	if out := buf.String(); !strings.Contains(out, "0 failed, 3 skipped") || strings.Contains(out, "error:") {
		t.Errorf("text output:\n%s", out)
	}
}

func TestAggregateMetricsSortedAndJSONRoundTrips(t *testing.T) {
	results := []RunResult{
		metricRun(0, "base", 1, analysis.KeyMetrics{"z_last": 1, "a_first": 2, "m_mid": 3}),
		metricRun(1, "base", 2, analysis.KeyMetrics{"z_last": 2, "a_first": 3, "m_mid": 4}),
	}
	agg := Aggregate(results)
	metrics := agg.Scenarios[0].Metrics
	if metrics[0].Metric != "a_first" || metrics[1].Metric != "m_mid" || metrics[2].Metric != "z_last" {
		t.Errorf("metric order: %v, %v, %v", metrics[0].Metric, metrics[1].Metric, metrics[2].Metric)
	}

	var buf bytes.Buffer
	if err := agg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded AggregateResult
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Runs != 2 || len(decoded.Scenarios) != 1 || len(decoded.Scenarios[0].Metrics) != 3 {
		t.Errorf("round trip lost data: %+v", decoded)
	}
}

func TestAggregateSingleObservationHasZeroCI(t *testing.T) {
	agg := Aggregate([]RunResult{metricRun(0, "base", 1, analysis.KeyMetrics{"m": 5})})
	m := agg.Scenario("base").Metric("m")
	if m.CI95 != 0 || m.StdDev != 0 || m.Mean != 5 {
		t.Errorf("single-run summary = %+v", m)
	}
}

func TestWriteTextRendersEveryScenario(t *testing.T) {
	results := []RunResult{
		metricRun(0, "nodes=60", 1, analysis.KeyMetrics{"fork_rate": 0.05}),
		metricRun(1, "nodes=120", 1, analysis.KeyMetrics{"fork_rate": 0.07}),
	}
	var buf bytes.Buffer
	Aggregate(results).WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"nodes=60", "nodes=120", "fork_rate", "2 runs"} {
		if !strings.Contains(out, want) {
			t.Errorf("text output missing %q:\n%s", want, out)
		}
	}
}

// Scenario returns the named scenario summary, or nil.
func (a *AggregateResult) Scenario(name string) *ScenarioSummary {
	for i := range a.Scenarios {
		if a.Scenarios[i].Scenario == name {
			return &a.Scenarios[i]
		}
	}
	return nil
}

// Metric returns the named metric within a scenario summary, or nil.
func (s *ScenarioSummary) Metric(name string) *MetricSummary {
	for i := range s.Metrics {
		if s.Metrics[i].Metric == name {
			return &s.Metrics[i]
		}
	}
	return nil
}
