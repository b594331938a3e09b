package core

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ethmeasure/internal/chain"
	"ethmeasure/internal/logs"
	"ethmeasure/internal/measure"
)

// campaignLog is a campaign log read back whole.
type campaignLog struct {
	meta   *logs.Meta
	blocks []measure.BlockRecord
	txs    []measure.TxRecord
	chain  *chain.Registry
	// recordSum is the record fingerprint over the records in file
	// order, the order the bus carried them.
	recordSum string
}

// readLog reads a campaign log with logs.Reader, rebuilding the chain
// dump with logs.ChainBuilder under the protocol its metadata names.
func readLog(t *testing.T, path string) *campaignLog {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reader := logs.NewReader(f)
	l := &campaignLog{}
	var builder logs.ChainBuilder
	fp := logs.NewRecordFingerprinter()
	for {
		e, err := reader.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		switch e.Kind {
		case logs.KindMeta:
			l.meta = e.Meta
			if builder.Protocol, err = logs.ProtocolFromMeta(e.Meta); err != nil {
				t.Fatal(err)
			}
		case logs.KindBlock:
			l.blocks = append(l.blocks, *e.Block)
			fp.RecordBlock(*e.Block)
		case logs.KindTx:
			l.txs = append(l.txs, *e.Tx)
			fp.RecordTx(*e.Tx)
		case logs.KindChain:
			if err := builder.Add(e.Chain); err != nil {
				t.Fatal(err)
			}
		}
	}
	l.chain = builder.Registry()
	l.recordSum = fp.Sum()
	return l
}

// TestCrossFormatSpillEquivalence is the golden cross-format test at
// the core level: a campaign's binary spill holds exactly the record
// stream its bus carried, and its JSONL transcription (what
// ethanalyze -convert writes) loads back to identical records,
// metadata and chain — the analysis pipeline downstream is a pure
// function of these, so equal inputs guarantee equal Results.
// (cmd/ethanalyze has the complementary end-to-end test comparing
// full report bytes.)
func TestCrossFormatSpillEquivalence(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig()
	cfg.SpillPath = filepath.Join(dir, "spill.ethlog")
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hasher := newRecordHasher()
	campaign.bus.Attach(hasher)
	if _, err := campaign.RunContext(context.Background(), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	binaryPath := cfg.SpillPath

	jsonlPath := filepath.Join(dir, "spill.jsonl")
	in, err := os.Open(binaryPath)
	if err != nil {
		t.Fatal(err)
	}
	defer in.Close()
	w, err := logs.CreateFileFormat(jsonlPath, logs.FormatJSONL)
	if err != nil {
		t.Fatal(err)
	}
	reader := logs.NewReader(in)
	for {
		e, err := reader.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		w.Write(e)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// The binary file must actually be binary (and smaller), the JSONL
	// file actually JSONL.
	jf, err := os.ReadFile(jsonlPath)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := os.ReadFile(binaryPath)
	if err != nil {
		t.Fatal(err)
	}
	if jf[0] != '{' {
		t.Errorf("jsonl transcription starts with 0x%02x, want '{'", jf[0])
	}
	if bf[0] == '{' {
		t.Error("binary spill looks like JSONL")
	}
	if len(bf) >= len(jf) {
		t.Errorf("binary spill (%d bytes) not smaller than JSONL (%d bytes)", len(bf), len(jf))
	}

	a, b := readLog(t, jsonlPath), readLog(t, binaryPath)
	if len(a.blocks) == 0 || len(a.txs) == 0 {
		t.Fatalf("campaign produced no records (%d blocks, %d txs)", len(a.blocks), len(a.txs))
	}
	if !reflect.DeepEqual(a.blocks, b.blocks) {
		t.Error("block records diverge across formats")
	}
	if !reflect.DeepEqual(a.txs, b.txs) {
		t.Error("tx records diverge across formats")
	}
	if !reflect.DeepEqual(a.meta, b.meta) {
		t.Errorf("meta diverges: %+v vs %+v", a.meta, b.meta)
	}
	if !reflect.DeepEqual(b.meta, campaign.logMeta()) {
		t.Errorf("spilled meta %+v, want %+v", b.meta, campaign.logMeta())
	}
	if logs.ChainFingerprint(a.chain) != logs.ChainFingerprint(b.chain) {
		t.Error("chain dumps diverge across formats")
	}
	if logs.ChainFingerprint(b.chain) != chainFingerprint(campaign) {
		t.Error("spilled chain dump diverges from the campaign registry")
	}

	// Record fingerprints must agree with each other and with the
	// stream the bus carried — the digest a checkpoint would carry.
	if a.recordSum != b.recordSum {
		t.Error("record fingerprints diverge across formats")
	}
	if b.recordSum != hasher.Sum() {
		t.Error("spilled records diverge from the bus record stream")
	}
}

// TestSpillMetaWriteFailsAtStart pins the satellite fix: an
// unwritable spill target (here /dev/full, which fails every write
// with ENOSPC) must fail campaign construction — not surface hours
// later when the run finalizes the spill file.
func TestSpillMetaWriteFailsAtStart(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available")
	}
	cfg := tinyConfig()
	cfg.SpillPath = "/dev/full"
	if _, err := NewCampaign(cfg); err == nil {
		t.Fatal("campaign construction succeeded with a full spill disk")
	}
}
