package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunUnknownPreset(t *testing.T) {
	if err := run([]string{"-preset", "bogus"}); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// TestRunRejectsNegativeOverrides: a negative override is an error,
// not a silent fall-back to the preset's value.
func TestRunRejectsNegativeOverrides(t *testing.T) {
	for _, args := range [][]string{
		{"-duration", "-5m"},
		{"-nodes", "-3"},
		{"-txrate", "-0.5"},
		{"-shards", "-1"},
	} {
		if err := run(append([]string{"-preset", "quick"}, args...)); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestRunPrintInfra(t *testing.T) {
	if err := run([]string{"-print-infra"}); err != nil {
		t.Fatal(err)
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

func TestRunTxRateOverride(t *testing.T) {
	err := run([]string{
		"-preset", "quick", "-duration", "3m", "-nodes", "60", "-txrate", "0.2",
	})
	if err != nil {
		t.Fatal(err)
	}
}
