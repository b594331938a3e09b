package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// tinyScale runs every workload in a few seconds.
var tinyScale = scale{
	nodes:         60,
	relayHorizon:  time.Minute,
	blocksHorizon: 5 * time.Minute,
	logHorizon:    5 * time.Minute,
	setupBuilds:   2,
	logBuilds:     2,
	passes:        2,
	minReps:       2,
	maxReps:       2,
}

func tinyOptions(t *testing.T, workload string, trace bool) options {
	return options{workload: workload, seed: 1, seconds: 1, trace: trace, tmpdir: t.TempDir(), scale: tinyScale}
}

// runTiny executes one tiny run, requires it to pass its own checks,
// and returns the parsed last line of its output.
func runTiny(t *testing.T, workload string, trace bool) result {
	t.Helper()
	var log bytes.Buffer
	oc, err := execute(tinyOptions(t, workload, trace), &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, log.String())
	}
	var out bytes.Buffer
	if err := oc.emit(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", workload, trace, res.Correct, res.Attempted, res.Failed, log.String())
	}
	return res
}

func requireMetrics(t *testing.T, res result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s not printed", d.name)
		} else if m.Unit != d.unit {
			t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
}

func TestSmokeUntraced(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res := runTiny(t, w, false)
			requireMetrics(t, res, endToEnd)
			for name, m := range res.Metrics {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
		})
	}
}

func TestSmokeTraced(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			res := runTiny(t, w, true)
			requireMetrics(t, res, perLayer)
			if res.Metrics["trace.profile_cpu_share"].Value == 0 {
				t.Skip("the tiny traced region took no profile samples")
			}
			var shares float64
			for _, mod := range modules {
				shares += res.Metrics[mod+".cpu_share"].Value
			}
			if shares < 0.95 || shares > 1.0001 {
				t.Errorf("module cpu shares sum to %v, want at least 0.95", shares)
			}
		})
	}
}

// The traced run must not change what the simulation computes.
func TestTracedCountsMatchUntraced(t *testing.T) {
	for _, tx := range []bool{true, false} {
		r := newRunner(tinyOptions(t, "relay-1000", true), os.Stderr)
		cfg := r.campaignConfig(tx, 2*time.Minute, "")
		plain, err := r.campaignRep(cfg, false, false)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := r.campaignRep(cfg, true, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := plain.sameAs(traced); err != nil {
			t.Errorf("tx=%v: %v", tx, err)
		}
		if len(r.tr.ticks) == 0 || len(r.tr.spans) == 0 {
			t.Errorf("tx=%v: traced run recorded %d spans and %d ticks", tx, len(r.tr.spans), len(r.tr.ticks))
		}
	}
}

// BENCHMARK.json must declare exactly the workloads and metrics the
// benchmark prints, with valid names and units.
func TestDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
				t.Errorf("bad metric name or unit: %q %q", d.name, d.unit)
			}
		}
	}
	var workloads, e2e, layers []string
	for _, w := range decl.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range decl.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 || m.Better != "lower" {
			t.Errorf("end-to-end metric %s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range decl.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	want := func(defs []metricDef) string {
		var s []string
		for _, d := range defs {
			s = append(s, d.name+" "+d.unit)
		}
		return strings.Join(s, ",")
	}
	if got := strings.Join(workloads, ","); got != strings.Join(workloadNames, ",") {
		t.Errorf("declared workloads %s, benchmark runs %v", got, workloadNames)
	}
	if got := strings.Join(e2e, ","); got != want(endToEnd) {
		t.Errorf("declared end-to-end metrics\n  %s\nbenchmark prints\n  %s", got, want(endToEnd))
	}
	if got := strings.Join(layers, ","); got != want(perLayer) {
		t.Errorf("declared per-layer metrics\n  %s\nbenchmark prints\n  %s", got, want(perLayer))
	}
}

func TestModuleOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "ethmeasure/internal/p2p.(*Node).relayTx"}, "runtime"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "ethmeasure/internal/p2p.f"}, "runtime"},
		{[]string{"ethmeasure/internal/hashset.(*U64).Has"}, "hashset"},
		{[]string{"sort.Float64s", "ethmeasure/internal/stats.(*Sample).ensureSorted"}, "stats"},
		{[]string{"math/rand.(*Rand).Int63", "ethmeasure/internal/simnet.(*Network).Send"}, "simnet"},
		{[]string{"ethmeasure/internal/scenario.Build"}, "other"},
		{[]string{"main.reanalyze"}, "other"},
		{nil, "other"},
	} {
		if got := moduleOf(c.stack); got != c.want {
			t.Errorf("moduleOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// A real profile of this test binary decodes, and CPU spent in this
// package's own code is charged to "other".
func TestAttributeProfile(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	x := uint64(1)
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	sink = x
	byPhase, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	m := merge(byPhase[""])
	if m.total() == 0 {
		t.Fatal("profile has no samples")
	}
	if share := m.shares()["other"]; share < 0.5 {
		t.Errorf("busy loop charged %.2f to other, want most of it; modules: %v", share, m)
	}
}

var sink uint64

func TestHostScale(t *testing.T) {
	// The median kernel took 0.5 s: the host ran at half the reference
	// speed, so measured times are halved.
	if got := hostScale([]float64{1, 0.25, 0.5}); got != 0.5 {
		t.Errorf("hostScale = %v, want 0.5", got)
	}
}

func TestParseArgs(t *testing.T) {
	o, err := parseArgs([]string{"--workload", "reanalyze", "--seed", "7", "--seconds", "3", "--trace", "1"})
	if err != nil || o.workload != "reanalyze" || o.seed != 7 || o.seconds != 3 || !o.trace {
		t.Fatalf("parseArgs = %+v, %v", o, err)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "relay-1000", "--trace", "2"},
		{"--workload", "relay-1000", "--seconds", "0"},
	} {
		if _, err := parseArgs(bad); err == nil {
			t.Errorf("parseArgs(%v) accepted", bad)
		}
	}
}
