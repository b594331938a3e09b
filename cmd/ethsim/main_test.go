package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"ethmeasure/internal/chain"
	"ethmeasure/internal/logs"
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

func TestRunRequiresOut(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing -out accepted")
	}
}

// TestRunRejectsNegativeOverrides: a negative override is an error,
// not a silent fall-back to the preset's value.
func TestRunRejectsNegativeOverrides(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.ethlog")
	for _, args := range [][]string{
		{"-duration", "-5m"},
		{"-nodes", "-3"},
		{"-shards", "-1"},
	} {
		if err := run(append([]string{"-out", out}, args...)); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	if _, err := os.Stat(out); err == nil {
		t.Error("rejected run wrote a log")
	}
}

func TestRunRejectsUnknownPreset(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.ethlog")
	if err := run([]string{"-out", out, "-preset", "bogus"}); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestRunWritesLogs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "campaign.ethlog")
	err := run([]string{
		"-out", out, "-preset", "quick",
		"-duration", "5m", "-nodes", "60", "-no-tx", "-seed", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(out)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("log file empty")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestListScenarios(t *testing.T) {
	// -list-scenarios needs no -out and must not simulate anything.
	if err := run([]string{"-list-scenarios"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadScenario(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.ethlog")
	for _, spec := range []string{"no-such", "partition", "eclipse:attackers=0"} {
		if err := run([]string{"-out", out, "-scenario", spec}); err == nil {
			t.Errorf("-scenario %q accepted", spec)
		}
	}
}

func TestRunWithScenarioWritesTaggedLogs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "scenario.ethlog")
	err := run([]string{
		"-out", out, "-preset", "quick",
		"-duration", "5m", "-nodes", "60", "-no-tx", "-seed", "3",
		"-scenario", "relayoverlay",
		"-scenario", "churnburst:count=5,start=2m",
	})
	if err != nil {
		t.Fatal(err)
	}
	meta, _ := readLog(t, out)
	want := []string{"relayoverlay", "churnburst:count=5,start=2m"}
	if len(meta.Scenarios) != 2 || meta.Scenarios[0] != want[0] || meta.Scenarios[1] != want[1] {
		t.Errorf("log meta scenarios = %v, want %v", meta.Scenarios, want)
	}
}

func TestListProtocols(t *testing.T) {
	// -list-protocols needs no -out and must not simulate anything.
	if err := run([]string{"-list-protocols"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadProtocol(t *testing.T) {
	out := filepath.Join(t.TempDir(), "x.ethlog")
	for _, spec := range []string{"no-such", "bitcoin:reward=-1", "ghost-inclusive:depth=oops"} {
		if err := run([]string{"-out", out, "-protocol", spec}); err == nil {
			t.Errorf("-protocol %q accepted", spec)
		}
	}
}

func TestRunWithProtocolWritesTaggedLogs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bitcoin.ethlog")
	err := run([]string{
		"-out", out, "-preset", "quick",
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
