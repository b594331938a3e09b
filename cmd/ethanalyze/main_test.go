package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ethmeasure"
	"ethmeasure/internal/core"
	"ethmeasure/internal/logs"
)

func analyzerConfig() ethmeasure.Config {
	cfg := ethmeasure.QuickConfig()
	cfg.Duration = 5 * time.Minute
	cfg.NumNodes = 60
	cfg.OutDegree = 5
	for i := range cfg.Vantages {
		if cfg.Vantages[i].Peers > 20 {
			cfg.Vantages[i].Peers = 20
		}
	}
	cfg.TxGen.Rate = 0.3
	cfg.TxGen.NumAccounts = 50
	return cfg
}

func TestRunRequiresLogs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing -logs accepted")
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run([]string{"-logs", filepath.Join(t.TempDir(), "absent.jsonl")}); err == nil {
		t.Fatal("missing file accepted")
	}
}

// spillCampaign runs the analyzer test campaign, streaming its log to
// path, and returns the live campaign's results.
func spillCampaign(t *testing.T, path string) *ethmeasure.Results {
	t.Helper()
	cfg := analyzerConfig()
	cfg.SpillPath = path
	campaign, err := ethmeasure.NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := campaign.RunContext(context.Background(), ethmeasure.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReportMatchesLiveCampaign: below its header lines, the report
// printed from a log is the live campaign's report without the fee
// market, whose gas prices the log does not carry.
func TestReportMatchesLiveCampaign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.ethlog")
	live := spillCampaign(t, path)
	if live.FeeMarket == nil {
		t.Fatal("the test campaign computed no fee market")
	}
	live.FeeMarket = nil
	var want bytes.Buffer
	ethmeasure.WriteReport(&want, live)

	out := captureRun(t, []string{"-logs", path}, path)
	header, got, ok := strings.Cut(out, "\n\n")
	if !ok || !strings.HasPrefix(header, "streamed ") {
		t.Fatalf("report has no header block:\n%.400s", out)
	}
	if got != want.String() {
		t.Errorf("log report differs from the live report:\n--- log ---\n%s\n--- live ---\n%s", got, want.String())
	}
}

// readEntries reads every entry of a log, copying each block and tx
// record out of the Reader, which reuses them.
func readEntries(t *testing.T, path string) []*logs.Entry {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reader := logs.NewReader(f)
	var entries []*logs.Entry
	for {
		e, err := reader.Next()
		if err == io.EOF {
			return entries
		}
		if err != nil {
			t.Fatal(err)
		}
		c := *e
		switch {
		case c.Block != nil:
			b := *c.Block
			c.Block = &b
		case c.Tx != nil:
			tx := *c.Tx
			c.Tx = &tx
		}
		entries = append(entries, &c)
	}
}

// writeEntries writes entries to a binary log at path.
func writeEntries(t *testing.T, path string, entries []*logs.Entry) {
	t.Helper()
	w, err := logs.CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		w.Write(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRunAnalyzesCampaignFile: the report depends on the log's
// content, not its layout. A file grouped by kind (metadata, every
// block record, every tx record, then the chain dump — the layout
// older whole-file writers produced) analyzes to the same report as
// the interleaved spill it was rearranged from.
func TestRunAnalyzesCampaignFile(t *testing.T) {
	dir := t.TempDir()
	spillPath := filepath.Join(dir, "spill.ethlog")
	spillCampaign(t, spillPath)

	entries := readEntries(t, spillPath)
	var grouped []*logs.Entry
	for _, kind := range []string{logs.KindMeta, logs.KindBlock, logs.KindTx, logs.KindChain} {
		for _, e := range entries {
			if e.Kind == kind {
				grouped = append(grouped, e)
			}
		}
	}
	groupedPath := filepath.Join(dir, "grouped.ethlog")
	writeEntries(t, groupedPath, grouped)

	a := captureRun(t, []string{"-logs", spillPath}, spillPath)
	b := captureRun(t, []string{"-logs", groupedPath}, groupedPath)
	if a != b {
		t.Errorf("grouped layout analyzes differently:\n--- spill ---\n%.400s\n--- grouped ---\n%.400s", a, b)
	}
}

// TestRunAnalyzesSpillFile streams a campaign's spill file — the
// records were never materialized, neither by the campaign nor by the
// analyzer.
func TestRunAnalyzesSpillFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spill.ethlog")
	spillCampaign(t, path)
	if err := run([]string{"-logs", path}); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsLogWithoutMeta: without the leading metadata entry the
// vantage roster, pool names and redundancy vantage are unknown, so
// the analyzer refuses the log instead of guessing them.
func TestRunRejectsLogWithoutMeta(t *testing.T) {
	dir := t.TempDir()
	spillPath := filepath.Join(dir, "spill.ethlog")
	spillCampaign(t, spillPath)
	entries := readEntries(t, spillPath)
	if entries[0].Kind != logs.KindMeta {
		t.Fatalf("spill opens with a %q entry, want meta", entries[0].Kind)
	}
	path := filepath.Join(dir, "no-meta.ethlog")
	writeEntries(t, path, entries[1:])
	err := run([]string{"-logs", path})
	if err == nil {
		t.Fatal("log without metadata analyzed")
	}
	if !strings.Contains(err.Error(), "metadata") {
		t.Errorf("error %q does not name the missing metadata", err)
	}
}

// TestRunPrintsModelRevision: the header names the model revision the
// log records, and "unrecorded" for a log written before revisions
// were, whose metadata has none.
func TestRunPrintsModelRevision(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spill.ethlog")
	spillCampaign(t, path)
	want := fmt.Sprintf("\nmodel revision: %d\n", core.ModelRevision)
	if out := captureRun(t, []string{"-logs", path}, path); !strings.Contains(out, want) {
		t.Errorf("header lacks %q:\n%.400s", want, out)
	}
	entries := readEntries(t, path)
	entries[0].Meta.ModelRevision = 0
	old := filepath.Join(dir, "old.ethlog")
	writeEntries(t, old, entries)
	if out := captureRun(t, []string{"-logs", old}, old); !strings.Contains(out, "\nmodel revision: unrecorded\n") {
		t.Errorf("header of a log without a revision lacks \"model revision: unrecorded\":\n%.400s", out)
	}
}

// TestConvertRefusesItsInput: -convert onto the input log, by its own
// path or through a symlink or hard link, fails before the output is
// created, so the log is left as it was.
func TestConvertRefusesItsInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ethlog")
	spillCampaign(t, path)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	symlink := filepath.Join(dir, "symlink.ethlog")
	if err := os.Symlink(path, symlink); err != nil {
		t.Fatal(err)
	}
	hardlink := filepath.Join(dir, "hardlink.ethlog")
	if err := os.Link(path, hardlink); err != nil {
		t.Fatal(err)
	}
	for _, dst := range []string{path, symlink, hardlink} {
		if err := run([]string{"-logs", path, "-convert", dst}); err == nil {
			t.Errorf("-convert %s onto its own input succeeded", filepath.Base(dst))
		}
		if got, err := os.ReadFile(path); err != nil {
			t.Fatal(err)
		} else if !bytes.Equal(got, want) {
			t.Fatalf("-convert %s changed the input log (%d bytes, was %d)", filepath.Base(dst), len(got), len(want))
		}
	}
}

// captureRun executes run() with stdout captured, normalizing the log
// path out of the output so reports over differently named files
// compare byte-for-byte.
func captureRun(t *testing.T, args []string, paths ...string) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(args)
	w.Close()
	os.Stdout = old
	out, readErr := io.ReadAll(r)
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if readErr != nil {
		t.Fatal(readErr)
	}
	s := string(out)
	for _, p := range paths {
		s = strings.ReplaceAll(s, p, "LOG")
	}
	return s
}

// TestGoldenCrossFormatAnalysis is the end-to-end golden test: a
// campaign's binary spill and its -convert JSONL export must print
// byte-identical reports (every table, figure and key metric), and
// converting back to binary must reproduce the spill byte-for-byte.
func TestGoldenCrossFormatAnalysis(t *testing.T) {
	dir := t.TempDir()
	binPath := filepath.Join(dir, "campaign.ethlog")
	spillCampaign(t, binPath)
	raw, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || raw[0] == '{' {
		t.Fatal("campaign spill is not binary")
	}

	// Transcode binary -> JSONL -> binary.
	jsonlPath := filepath.Join(dir, "campaign.jsonl")
	captureRun(t, []string{"-logs", binPath, "-convert", jsonlPath}, binPath, jsonlPath)
	jraw, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	if jraw[0] != '{' {
		t.Fatal("default convert target for a binary log must be JSONL")
	}
	backPath := filepath.Join(dir, "back.ethlog")
	captureRun(t, []string{"-logs", jsonlPath, "-convert", backPath}, jsonlPath, backPath)
	braw, err := os.ReadFile(backPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, braw) {
		t.Errorf("binary -> jsonl -> binary round trip not byte-identical (%d vs %d bytes)", len(raw), len(braw))
	}

	// All three logs must analyze to byte-identical reports.
	outBin := captureRun(t, []string{"-logs", binPath}, binPath)
	outJSONL := captureRun(t, []string{"-logs", jsonlPath}, jsonlPath)
	outBack := captureRun(t, []string{"-logs", backPath}, backPath)
	if outBin != outJSONL {
		t.Errorf("binary and JSONL analyses diverge:\n--- binary ---\n%.400s\n--- jsonl ---\n%.400s", outBin, outJSONL)
	}
	if outBin != outBack {
		t.Error("round-tripped binary analysis diverges from the original")
	}
}
