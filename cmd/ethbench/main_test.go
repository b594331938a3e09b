package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	cases := [][]string{
		{"-profile", "bogus"},
		{"-scales", "abc"},
		{"-scales", "40"},
		{"-scales", "40:x"},
		{"-scales", "4:10"}, // too few nodes
		{"-scales", ","},
	}
	for _, args := range cases {
		if err := run(append(args, "-out", ""), &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestParseScales(t *testing.T) {
	scales, err := parseScales("150:8, 1000:2.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(scales) != 2 || scales[0].nodes != 150 || scales[1].nodes != 1000 {
		t.Fatalf("scales = %+v", scales)
	}
	if scales[1].virtual.Seconds() != 150 {
		t.Errorf("2.5 virtual minutes parsed as %v", scales[1].virtual)
	}
}

func TestProfiles(t *testing.T) {
	for _, p := range []string{"short", "ci", "full"} {
		scales, err := profileScales(p)
		if err != nil || len(scales) == 0 {
			t.Errorf("profile %s: %v (%d scales)", p, err, len(scales))
		}
	}
}

// TestRunTinyCampaignWritesReport exercises the whole harness on a
// deliberately tiny scale and checks the report invariants.
func TestRunTinyCampaignWritesReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real campaign")
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	var buf bytes.Buffer
	if err := run([]string{"-scales", "40:1", "-skip-engine", "-skip-dispatch", "-skip-logs", "-out", out}, &buf); err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 1 {
		t.Fatalf("entries = %+v", rep.Entries)
	}
	e := rep.Entries[0]
	if e.Name != "campaign/40" || e.Events == 0 || e.NsPerOp <= 0 || e.EventsPerSec <= 0 {
		t.Fatalf("implausible entry %+v", e)
	}
	// A campaign's op is the whole campaign: the gated pair is wall ns
	// and allocs per campaign, the per-event pair is informational.
	if math.Abs(e.WallMs*1e6-e.NsPerOp) > 1e-6*e.NsPerOp || math.Abs(e.NsPerEvent*float64(e.Events)-e.NsPerOp) > 1e-6*e.NsPerOp ||
		math.Abs(e.AllocsPerEvent*float64(e.Events)-e.AllocsPerOp) > 1e-6*e.AllocsPerOp {
		t.Fatalf("campaign entry is not per campaign: %+v", e)
	}

	// Self-comparison must pass...
	if err := run([]string{"-scales", "40:1", "-skip-engine", "-skip-dispatch", "-skip-logs", "-out", "", "-baseline", out, "-threshold", "100"}, &buf); err != nil {
		t.Fatalf("self-compare failed: %v\n%s", err, buf.String())
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	base := &Report{Entries: []Entry{
		{Name: "campaign/150", NsPerOp: 1000, AllocsPerOp: 1.0},
		{Name: "engine/selfschedule", NsPerOp: 50, AllocsPerOp: 0},
	}}
	var buf bytes.Buffer

	ok := &Report{Entries: []Entry{
		{Name: "campaign/150", NsPerOp: 1100, AllocsPerOp: 1.05},
		{Name: "engine/selfschedule", NsPerOp: 55, AllocsPerOp: 0},
		{Name: "campaign/9999", NsPerOp: 1, AllocsPerOp: 0}, // not in baseline: skipped
	}}
	if err := compare(ok, base, 0.15, false, &buf); err != nil {
		t.Fatalf("within-threshold run flagged: %v\n%s", err, buf.String())
	}

	slow := &Report{Entries: []Entry{{Name: "campaign/150", NsPerOp: 1300, AllocsPerOp: 1.0}}}
	if err := compare(slow, base, 0.15, false, &buf); err == nil {
		t.Fatal("30% ns regression not flagged")
	}
	// ...unless ns gating is off for cross-hardware baselines.
	if err := compare(slow, base, 0.15, true, &buf); err != nil {
		t.Fatalf("-allocs-only still failed on ns drift: %v", err)
	}
	leaky := &Report{Entries: []Entry{{Name: "campaign/150", NsPerOp: 1000, AllocsPerOp: 1.5}}}
	if err := compare(leaky, base, 0.15, false, &buf); err == nil {
		t.Fatal("50% alloc regression not flagged")
	}
	if err := compare(leaky, base, 0.15, true, &buf); err == nil {
		t.Fatal("alloc regression must fail even under -allocs-only")
	}
	// Zero-alloc baselines tolerate the absolute epsilon but not real leaks.
	tiny := &Report{Entries: []Entry{{Name: "engine/selfschedule", NsPerOp: 50, AllocsPerOp: 0.005}}}
	if err := compare(tiny, base, 0.15, false, &buf); err != nil {
		t.Fatalf("epsilon-level alloc noise flagged: %v", err)
	}
	leak := &Report{Entries: []Entry{{Name: "engine/selfschedule", NsPerOp: 50, AllocsPerOp: 0.5}}}
	if err := compare(leak, base, 0.15, false, &buf); err == nil {
		t.Fatal("real alloc leak on zero baseline not flagged")
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Error("regression output missing marker")
	}
}

// TestCompareAnalysisGates covers the analysis-phase regression gates:
// ns/record follows the ns rules (hard fail unless -allocs-only),
// peak heap fails beyond threshold + 32 MB regardless of -allocs-only.
func TestCompareAnalysisGates(t *testing.T) {
	base := &Report{Entries: []Entry{{
		Name: "campaign/150", NsPerOp: 1000, AllocsPerOp: 1.0,
		AnalysisNsPerRecord: 100, AnalysisPeakHeapBytes: 100 << 20,
	}}}
	var buf bytes.Buffer

	ok := &Report{Entries: []Entry{{
		Name: "campaign/150", NsPerOp: 1000, AllocsPerOp: 1.0,
		AnalysisNsPerRecord: 110, AnalysisPeakHeapBytes: 120 << 20, // within 15% + 32 MB
	}}}
	if err := compare(ok, base, 0.15, false, &buf); err != nil {
		t.Fatalf("within-threshold analysis metrics flagged: %v\n%s", err, buf.String())
	}

	slowAnalysis := &Report{Entries: []Entry{{
		Name: "campaign/150", NsPerOp: 1000, AllocsPerOp: 1.0,
		AnalysisNsPerRecord: 200, AnalysisPeakHeapBytes: 100 << 20,
	}}}
	if err := compare(slowAnalysis, base, 0.15, false, &buf); err == nil {
		t.Fatal("2x analysis ns/record not flagged")
	}
	if err := compare(slowAnalysis, base, 0.15, true, &buf); err != nil {
		t.Fatalf("-allocs-only still failed on analysis ns drift: %v", err)
	}

	fatHeap := &Report{Entries: []Entry{{
		Name: "campaign/150", NsPerOp: 1000, AllocsPerOp: 1.0,
		AnalysisNsPerRecord: 100, AnalysisPeakHeapBytes: 200 << 20,
	}}}
	if err := compare(fatHeap, base, 0.15, false, &buf); err == nil {
		t.Fatal("2x analysis peak heap not flagged")
	}
	if err := compare(fatHeap, base, 0.15, true, &buf); err == nil {
		t.Fatal("analysis heap regression must fail even under -allocs-only")
	}

	// Entries without analysis fields (e.g. microbenchmarks) never trip
	// the analysis gates.
	legacy := &Report{Entries: []Entry{{
		Name: "campaign/150", NsPerOp: 1000, AllocsPerOp: 1.0,
		AnalysisNsPerRecord: 500, AnalysisPeakHeapBytes: 1 << 30,
	}}}
	noAnalysisBase := &Report{Entries: []Entry{{Name: "campaign/150", NsPerOp: 1000, AllocsPerOp: 1.0}}}
	if err := compare(legacy, noAnalysisBase, 0.15, false, &buf); err != nil {
		t.Fatalf("baseline without analysis fields must not gate: %v", err)
	}
}
