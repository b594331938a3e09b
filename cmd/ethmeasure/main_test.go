package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ethmeasure/internal/chain"
	"ethmeasure/internal/logs"
	"ethmeasure/internal/serve"
	"ethmeasure/internal/types"
)

// readLog reads a campaign log's metadata and rebuilds its chain dump
// under the protocol the metadata names.
func readLog(t *testing.T, path string) (*logs.Meta, *chain.Registry) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reader := logs.NewReader(f)
	var meta *logs.Meta
	var builder logs.ChainBuilder
	for {
		e, err := reader.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch e.Kind {
		case logs.KindMeta:
			meta = e.Meta
			if builder.Protocol, err = logs.ProtocolFromMeta(meta); err != nil {
				t.Fatal(err)
			}
		case logs.KindChain:
			if err := builder.Add(e.Chain); err != nil {
				t.Fatal(err)
			}
		}
	}
	if meta == nil || builder.Registry() == nil {
		t.Fatalf("%s lacks metadata or chain dump", path)
	}
	return meta, builder.Registry()
}

// rejects runs args with -logs pointing into a fresh directory and
// fails the test unless the run is rejected without writing a log.
func rejects(t *testing.T, args ...string) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "x.ethlog")
	if err := run(append([]string{"-logs", out}, args...)); err == nil {
		t.Errorf("%v accepted", args)
	}
	if _, err := os.Stat(out); err == nil {
		t.Errorf("%v: rejected run wrote a log", args)
	}
}

func TestRunUnknownPreset(t *testing.T) {
	rejects(t, "-preset", "bogus")
}

// TestRunRejectsUnknownPreset: the error names the presets there are.
func TestRunRejectsUnknownPreset(t *testing.T) {
	err := run([]string{"-preset", "bogus"})
	if err == nil {
		t.Fatal("unknown preset accepted")
	}
	for _, name := range []string{"bogus", "quick", "default", "paper"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %s", err, name)
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// TestRunRejectsNegativeOverrides: a negative override is an error,
// not a silent fall-back to the preset's value.
func TestRunRejectsNegativeOverrides(t *testing.T) {
	for _, args := range [][]string{
		{"-duration", "-5m"},
		{"-nodes", "-3"},
		{"-txrate", "-0.5"},
	} {
		rejects(t, append([]string{"-preset", "quick"}, args...)...)
	}
}

// TestRunRejectsNegativeOverridesEveryPreset: the check holds whatever
// preset the overrides apply to, including the default one.
func TestRunRejectsNegativeOverridesEveryPreset(t *testing.T) {
	for _, preset := range [][]string{nil, {"-preset", "quick"}, {"-preset", "paper"}} {
		for _, args := range [][]string{
			{"-duration", "-5m"},
			{"-nodes", "-3"},
		} {
			rejects(t, append(append([]string{}, preset...), args...)...)
		}
	}
}

func TestRunRejectsBadScenario(t *testing.T) {
	for _, spec := range []string{"no-such", "partition", "eclipse:attackers=0"} {
		rejects(t, "-preset", "quick", "-scenario", spec)
	}
}

func TestRunRejectsBadProtocol(t *testing.T) {
	for _, spec := range []string{"no-such", "bitcoin:reward=-1", "ghost-inclusive:depth=oops"} {
		rejects(t, "-preset", "quick", "-protocol", spec)
	}
}

func TestRunPrintInfra(t *testing.T) {
	if err := run([]string{"-print-infra"}); err != nil {
		t.Fatal(err)
	}
}

func TestListScenarios(t *testing.T) {
	// -list-scenarios must not simulate anything.
	if err := run([]string{"-list-scenarios"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	printScenarioCatalog(&buf)
	if !strings.Contains(buf.String(), "partition") {
		t.Errorf("scenario catalog lacks partition:\n%s", buf.String())
	}
}

func TestListProtocols(t *testing.T) {
	// -list-protocols must not simulate anything.
	if err := run([]string{"-list-protocols"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	printProtocolCatalog(&buf)
	if !strings.Contains(buf.String(), "bitcoin") {
		t.Errorf("protocol catalog lacks bitcoin:\n%s", buf.String())
	}
}

func TestRunQuickCampaignWithLogs(t *testing.T) {
	logPath := filepath.Join(t.TempDir(), "out.ethlog")
	err := run([]string{
		"-preset", "quick", "-duration", "5m", "-nodes", "60",
		"-no-tx", "-logs", logPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(logPath); err != nil || info.Size() == 0 {
		t.Fatalf("log file not written: %v", err)
	}
}

// TestRunWritesLogs: the log's metadata records the seed and duration
// the flags asked for.
func TestRunWritesLogs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "campaign.ethlog")
	err := run([]string{
		"-logs", out, "-preset", "quick",
		"-duration", "5m", "-nodes", "60", "-no-tx", "-seed", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	meta, _ := readLog(t, out)
	if meta.Seed != 3 {
		t.Errorf("log meta seed = %d, want 3", meta.Seed)
	}
	if got := time.Duration(meta.DurationNs); got != 5*time.Minute {
		t.Errorf("log meta duration = %v, want 5m", got)
	}
	if meta.NetworkSize < 60 {
		t.Errorf("log meta network size = %d, want at least the 60 requested nodes", meta.NetworkSize)
	}
}

func TestRunTxRateOverride(t *testing.T) {
	err := run([]string{
		"-preset", "quick", "-duration", "3m", "-nodes", "60", "-txrate", "0.2",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunWithScenarioWritesTaggedLogs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "scenario.ethlog")
	err := run([]string{
		"-logs", out, "-preset", "quick",
		"-duration", "5m", "-nodes", "60", "-no-tx", "-seed", "3",
		"-scenario", "relayoverlay",
		"-scenario", "churnburst:count=5,start=2m",
	})
	if err != nil {
		t.Fatal(err)
	}
	meta, _ := readLog(t, out)
	want := []string{"relayoverlay", "churnburst:count=5,start=2m"}
	if !reflect.DeepEqual(meta.Scenarios, want) {
		t.Errorf("log meta scenarios = %v, want %v", meta.Scenarios, want)
	}
}

func TestRunWithProtocolWritesTaggedLogs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bitcoin.ethlog")
	err := run([]string{
		"-logs", out, "-preset", "quick",
		"-duration", "5m", "-nodes", "60", "-no-tx", "-seed", "3",
		"-protocol", "bitcoin",
	})
	if err != nil {
		t.Fatal(err)
	}
	meta, reg := readLog(t, out)
	if meta.Protocol != "bitcoin" {
		t.Errorf("log meta protocol = %q, want bitcoin", meta.Protocol)
	}
	// The rebuilt registry applies the logged protocol and the chain
	// carries no uncle references.
	if got := reg.Protocol().Name(); got != "bitcoin" {
		t.Errorf("rebuilt registry protocol = %q", got)
	}
	reg.Blocks(func(b *types.Block) bool {
		if len(b.Uncles) != 0 {
			t.Errorf("block %s carries uncles under bitcoin", b.Hash)
		}
		return true
	})
}

// TestFlagsMatchJobSpec: the same overrides given as ethmeasure flags
// and as an ethserve job spec build identical configurations.
// cmd/ethsweep checks its flags against the same job specs.
func TestFlagsMatchJobSpec(t *testing.T) {
	cases := []struct {
		args []string
		spec serve.JobSpec
	}{
		{[]string{"-preset", "quick"}, serve.JobSpec{Kind: "campaign"}},
		{
			[]string{"-preset", "quick", "-duration", "7m", "-nodes", "60", "-no-tx"},
			serve.JobSpec{Kind: "campaign", Duration: "7m", Nodes: 60, NoTx: true},
		},
		{
			[]string{"-seed", "9", "-protocol", "ghost-inclusive:depth=10",
				"-scenario", "relayoverlay", "-scenario", "churn:interval=90s"},
			serve.JobSpec{Kind: "campaign", Preset: "default", Seed: 9,
				Protocol: "ghost-inclusive:depth=10", Scenarios: []string{"relayoverlay", "churn:interval=90s"}},
		},
	}
	for _, tc := range cases {
		o, err := parseFlags(tc.args)
		if err != nil {
			t.Fatal(err)
		}
		got, err := o.config()
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
