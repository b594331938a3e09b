package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ethmeasure/internal/core"
	"ethmeasure/internal/serve"
)

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	cases := [][]string{
		{"-preset", "bogus"},
		{"-seeds", "0"},
		{"-vary", "nodes"},
		{"-vary", "nodes=abc"},
		{"-vary", "discovery=maybe"},
		{"-vary", "pools=bogus"},
		{"-vary", "churn=bogus"},
		{"-vary", "txrate=x"},
		{"-vary", "duration=x"},
		{"-vary", "unknown=1"},
		{"-duration", "-5m"},
		{"-nodes", "-3"},
	}
	for _, args := range cases {
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestParseAxis(t *testing.T) {
	ax, err := parseAxis("nodes=60, 120")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Name != "nodes" || len(ax.Variants) != 2 || ax.Variants[1].Name != "120" {
		t.Errorf("axis = %+v", ax)
	}
	ax, err = parseAxis("duration=10m,1h")
	if err != nil {
		t.Fatal(err)
	}
	if len(ax.Variants) != 2 || ax.Variants[0].Name != "10m0s" {
		t.Errorf("duration axis = %+v", ax)
	}
}

func TestRunTinySweepWithJSON(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "agg.json")
	var buf bytes.Buffer
	err := run([]string{
		"-preset", "quick", "-duration", "2m", "-nodes", "45", "-no-tx",
		"-seeds", "2", "-quiet", "-json", jsonPath,
		"-vary", "discovery=off,on",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}

	out := buf.String()
	for _, want := range []string{"4 runs", "scenario discovery=off", "scenario discovery=on", "± "} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var agg struct {
		Scenarios []struct {
			Scenario string  `json:"scenario"`
			Seeds    []int64 `json:"seeds"`
			Metrics  []struct {
				Metric string  `json:"metric"`
				N      int     `json:"n"`
				Mean   float64 `json:"mean"`
				CI95   float64 `json:"ci95"`
			} `json:"metrics"`
		} `json:"scenarios"`
		Runs   int `json:"runs"`
		Failed int `json:"failed"`
	}
	if err := json.Unmarshal(data, &agg); err != nil {
		t.Fatal(err)
	}
	if agg.Runs != 4 || agg.Failed != 0 || len(agg.Scenarios) != 2 {
		t.Fatalf("aggregate = %+v", agg)
	}
	found := false
	for _, m := range agg.Scenarios[0].Metrics {
		if m.Metric == "propagation_median_ms" {
			found = true
			if m.N != 2 || m.Mean <= 0 {
				t.Errorf("propagation summary = %+v", m)
			}
		}
	}
	if !found {
		t.Error("propagation_median_ms missing from JSON")
	}
	if len(agg.Scenarios[0].Seeds) != 2 || agg.Scenarios[0].Seeds[0] != 1 {
		t.Errorf("seeds = %v", agg.Scenarios[0].Seeds)
	}
}

func TestRunSeedBaseOffset(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-preset", "quick", "-duration", "90s", "-nodes", "45", "-no-tx",
		"-seeds", "1", "-seed", "42", "-quiet", "-json", "-",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "42") {
		t.Errorf("seed base not honored:\n%s", buf.String())
	}
}

func TestSplitSpecsTrimsAndDropsEmpties(t *testing.T) {
	got := splitSpecs("partition:a=EA,start=1m,dur=1m; relayoverlay;  ;")
	want := []string{"partition:a=EA,start=1m,dur=1m", "relayoverlay"}
	if len(got) != len(want) {
		t.Fatalf("splitSpecs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitSpecs[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if got := splitSpecs(";;"); len(got) != 0 {
		t.Fatalf("splitSpecs(\";;\") = %v, want empty", got)
	}
}

// TestRunAcceptsPaddedSpecLists: specs with spaces after the
// semicolons and a trailing separator must parse — the padded form
// used to fail on the untrimmed " churnburst..." item and the
// phantom empty spec.
func TestRunAcceptsPaddedSpecLists(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-preset", "quick", "-duration", "90s", "-nodes", "45", "-no-tx",
		"-seeds", "1", "-quiet",
		"-scenarios", "none; churnburst:count=5,start=30s;",
		"-protocols", "ethereum; bitcoin;",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	// 1 seed x 2 scenarios x 2 protocols.
	if !strings.Contains(buf.String(), "4 runs") {
		t.Errorf("padded spec lists did not expand to 4 runs:\n%s", buf.String())
	}
}

func TestRunRejectsBadShards(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-shards", "-1"}, &buf); err == nil {
		t.Error("-shards -1 accepted")
	}
}

func TestRunRejectsBadScenarios(t *testing.T) {
	var buf bytes.Buffer
	for _, spec := range []string{"no-such", "partition", "churn:interval=x"} {
		if err := run([]string{"-scenarios", spec}, &buf); err == nil {
			t.Errorf("-scenarios %q accepted", spec)
		}
	}
}

func TestRunTinyScenarioSweep(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "scn.json")
	var buf bytes.Buffer
	err := run([]string{
		"-preset", "quick", "-duration", "2m", "-nodes", "45", "-no-tx",
		"-seeds", "2", "-quiet", "-json", jsonPath,
		"-scenarios", "none;churnburst:count=5,start=30s",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var agg struct {
		Scenarios []struct {
			Scenario string `json:"scenario"`
			Metrics  []struct {
				Metric string  `json:"metric"`
				N      int     `json:"n"`
				Mean   float64 `json:"mean"`
			} `json:"metrics"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal(data, &agg); err != nil {
		t.Fatal(err)
	}
	if len(agg.Scenarios) != 2 {
		t.Fatalf("aggregate has %d scenarios, want 2", len(agg.Scenarios))
	}
	found := false
	for _, s := range agg.Scenarios {
		if !strings.Contains(s.Scenario, "churnburst") {
			continue
		}
		for _, m := range s.Metrics {
			if m.Metric == "scenario_churnburst_restarts" {
				found = true
				if m.N != 2 || m.Mean != 5 {
					t.Errorf("restarts aggregated as n=%d mean=%v, want n=2 mean=5", m.N, m.Mean)
				}
			}
		}
	}
	if !found {
		t.Errorf("scenario metric not aggregated: %s", data)
	}
}

func TestRunRejectsBadProtocols(t *testing.T) {
	var buf bytes.Buffer
	for _, spec := range []string{"no-such", "ethereum;tendermint", "ghost-inclusive:decay=5"} {
		if err := run([]string{"-preset", "quick", "-seeds", "1", "-protocols", spec}, &buf); err == nil {
			t.Errorf("-protocols %q accepted", spec)
		}
	}
}

func TestRunTinyProtocolSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep")
	}
	jsonPath := filepath.Join(t.TempDir(), "agg.json")
	var buf bytes.Buffer
	err := run([]string{
		"-preset", "quick", "-duration", "2m", "-nodes", "45", "-no-tx",
		"-seeds", "2", "-quiet", "-json", jsonPath,
		"-protocols", "ethereum;bitcoin",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"4 runs", "scenario protocol=ethereum", "scenario protocol=bitcoin"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var agg struct {
		Scenarios []struct {
			Scenario string `json:"scenario"`
			Metrics  []struct {
				Metric string `json:"metric"`
			} `json:"metrics"`
		} `json:"scenarios"`
		Failed int `json:"failed"`
	}
	if err := json.Unmarshal(data, &agg); err != nil {
		t.Fatal(err)
	}
	if agg.Failed != 0 || len(agg.Scenarios) != 2 {
		t.Fatalf("aggregate = %+v", agg)
	}
	// The bitcoin variant must aggregate without uncle metrics.
	for _, sc := range agg.Scenarios {
		hasUncle := false
		for _, m := range sc.Metrics {
			if m.Metric == "fork_recognized_share" {
				hasUncle = true
			}
		}
		switch sc.Scenario {
		case "protocol=ethereum":
			if !hasUncle {
				t.Error("ethereum aggregate lacks fork_recognized_share")
			}
		case "protocol=bitcoin":
			if hasUncle {
				t.Error("bitcoin aggregate carries fork_recognized_share")
			}
		default:
			t.Errorf("unexpected scenario %q", sc.Scenario)
		}
	}
}

// TestFlagsMatchJobSpec: the same base overrides given as ethsweep
// flags and as an ethserve sweep job spec build identical matrix base
// configurations. cmd/ethmeasure checks its flags against the same job
// specs.
func TestFlagsMatchJobSpec(t *testing.T) {
	cases := []struct {
		args []string
		spec serve.JobSpec
	}{
		{nil, serve.JobSpec{Kind: "sweep"}},
		{
			[]string{"-duration", "7m", "-nodes", "60", "-no-tx", "-shards", "1"},
			serve.JobSpec{Kind: "sweep", Duration: "7m", Nodes: 60, NoTx: true, Shards: 1},
		},
		{
			[]string{"-preset", "default", "-shards", "2"},
			serve.JobSpec{Kind: "sweep", Preset: "default", Shards: 2},
		},
	}
	for _, tc := range cases {
		o, err := parseFlags(tc.args)
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Configure(o.preset, o.overrides)
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		want, err := tc.spec.Config()
		if err != nil {
			t.Fatalf("%+v: %v", tc.spec, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: config differs from job spec %+v", tc.args, tc.spec)
		}
	}
}
