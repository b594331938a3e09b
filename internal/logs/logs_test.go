package logs

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ethmeasure/internal/chain"
	"ethmeasure/internal/measure"
	"ethmeasure/internal/types"
)

func sampleRecords() ([]measure.BlockRecord, []measure.TxRecord) {
	blocks := []measure.BlockRecord{
		{Vantage: "EA", At: 100 * time.Millisecond, Hash: 5, Number: 101, Miner: 1, Parent: 4, From: 7, Kind: "block", NTxs: 3, Size: 870},
		{Vantage: "NA", At: 180 * time.Millisecond, Hash: 5, Number: 101, From: 8, Kind: "announce", Size: 48},
	}
	txs := []measure.TxRecord{
		{Vantage: "EA", At: 50 * time.Millisecond, Hash: 21, Sender: 3, Nonce: 0, From: 7},
		{Vantage: "WE", At: 70 * time.Millisecond, Hash: 21, Sender: 3, Nonce: 0, From: 9},
	}
	return blocks, txs
}

func sampleRegistry(t *testing.T) *chain.Registry {
	t.Helper()
	issuer := types.NewHashIssuer(5)
	reg := chain.NewRegistry(100, issuer)
	g := reg.Genesis()
	b1 := &types.Block{
		Hash: issuer.Next(), Number: 101, ParentHash: g.Hash, Miner: 1,
		TxHashes: []types.Hash{21}, MinedAt: 90 * time.Millisecond, Size: 650,
	}
	if err := reg.Add(b1); err != nil {
		t.Fatal(err)
	}
	u := &types.Block{Hash: issuer.Next(), Number: 101, ParentHash: g.Hash, Miner: 2, Size: 540}
	if err := reg.Add(u); err != nil {
		t.Fatal(err)
	}
	b2 := &types.Block{
		Hash: issuer.Next(), Number: 102, ParentHash: b1.Hash, Miner: 1,
		Uncles: []types.Hash{u.Hash}, Size: 540,
	}
	if err := reg.Add(b2); err != nil {
		t.Fatal(err)
	}
	return reg
}

// loaded is a log stream read back whole.
type loaded struct {
	meta   *Meta
	blocks []measure.BlockRecord
	txs    []measure.TxRecord
	chain  *chain.Registry
}

// readAll reads a log stream entry by entry with Reader, rebuilding
// the chain dump with ChainBuilder.
func readAll(r io.Reader) (*loaded, error) {
	reader := NewReader(r)
	l := &loaded{}
	var builder ChainBuilder
	for {
		e, err := reader.Next()
		if err == io.EOF {
			l.chain = builder.Registry()
			return l, nil
		}
		if err != nil {
			return nil, err
		}
		switch e.Kind {
		case KindMeta:
			l.meta = e.Meta
		case KindBlock:
			l.blocks = append(l.blocks, *e.Block)
		case KindTx:
			l.txs = append(l.txs, *e.Tx)
		case KindChain:
			if err := builder.Add(e.Chain); err != nil {
				return nil, err
			}
		}
	}
}

// readPath is readAll over a file.
func readPath(t *testing.T, path string) *loaded {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	l, err := readAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// writeLog writes a campaign log in the given encoding: the optional
// metadata entry, the records, then the chain dump.
func writeLog(t *testing.T, path string, format Format, meta *Meta, blocks []measure.BlockRecord, txs []measure.TxRecord, reg *chain.Registry) {
	t.Helper()
	w, err := CreateFileFormat(path, format)
	if err != nil {
		t.Fatal(err)
	}
	if meta != nil {
		w.Write(&Entry{Kind: KindMeta, Meta: meta})
	}
	for i := range blocks {
		w.RecordBlock(blocks[i])
	}
	for i := range txs {
		w.RecordTx(txs[i])
	}
	if reg != nil {
		WriteChain(w, reg)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripInMemory(t *testing.T) {
	blocks, txs := sampleRecords()
	reg := sampleRegistry(t)

	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range blocks {
		w.RecordBlock(r)
	}
	for _, r := range txs {
		w.RecordTx(r)
	}
	WriteChain(w, reg)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Entries() != len(blocks)+len(txs)+reg.Len() {
		t.Errorf("entries = %d", w.Entries())
	}

	got, err := readAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	gotBlocks, gotTxs, gotReg := got.blocks, got.txs, got.chain
	if len(gotBlocks) != len(blocks) {
		t.Fatalf("blocks = %d", len(gotBlocks))
	}
	for i := range blocks {
		if gotBlocks[i] != blocks[i] {
			t.Errorf("block record %d = %+v, want %+v", i, gotBlocks[i], blocks[i])
		}
	}
	for i := range txs {
		if gotTxs[i] != txs[i] {
			t.Errorf("tx record %d mismatch", i)
		}
	}
	if gotReg == nil {
		t.Fatal("registry not rebuilt")
	}
	if gotReg.Len() != reg.Len() {
		t.Errorf("rebuilt registry has %d blocks, want %d", gotReg.Len(), reg.Len())
	}
	if gotReg.Head().Hash != reg.Head().Hash {
		t.Error("rebuilt head differs")
	}
	// Uncle references survive.
	if mainUncleRefs(gotReg) != 1 {
		t.Error("uncle refs lost in round trip")
	}
	// MinedAt round-trips through nanoseconds.
	main := gotReg.MainChain()
	if main[1].MinedAt != 90*time.Millisecond {
		t.Errorf("MinedAt = %v", main[1].MinedAt)
	}
}

func TestReaderSkipsBlankLinesAndReportsCorruption(t *testing.T) {
	input := "\n" + `{"kind":"tx","tx":{"v":"EA","t":1,"h":2,"a":3,"n":4,"f":5}}` + "\n\nnot-json\n"
	r := NewReader(strings.NewReader(input))
	e, err := r.Next()
	if err != nil || e.Kind != KindTx {
		t.Fatalf("first entry: %+v, %v", e, err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("corrupt line must error")
	}
}

func TestLoadUnknownKind(t *testing.T) {
	if _, err := readAll(strings.NewReader(`{"kind":"mystery"}` + "\n")); err == nil {
		t.Fatal("unknown kind must error")
	}
}

func TestLoadEmptyStream(t *testing.T) {
	l, err := readAll(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if l.meta != nil || l.blocks != nil || l.txs != nil || l.chain != nil {
		t.Error("empty stream should load nothing")
	}
}

func TestReaderEOF(t *testing.T) {
	r := NewReader(strings.NewReader(""))
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
}

func TestWriteFileReadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "campaign.ethlog")
	blocks, txs := sampleRecords()
	reg := sampleRegistry(t)
	writeLog(t, path, FormatBinary, nil, blocks, txs, reg)
	got := readPath(t, path)
	if len(got.blocks) != 2 || len(got.txs) != 2 || got.chain == nil {
		t.Errorf("read back %d blocks, %d txs, reg=%v", len(got.blocks), len(got.txs), got.chain != nil)
	}
}

func TestWriteFileWithoutChain(t *testing.T) {
	path := filepath.Join(t.TempDir(), "norec.ethlog")
	writeLog(t, path, FormatBinary, nil, nil, nil, nil)
	got := readPath(t, path)
	if got.blocks != nil || got.txs != nil || got.chain != nil {
		t.Error("expected an empty campaign file")
	}
}

func TestWriterRecorderInterface(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	var rec measure.Recorder = w
	rec.RecordBlock(measure.BlockRecord{Vantage: "EA", Hash: 1, Kind: "block"})
	rec.RecordTx(measure.TxRecord{Vantage: "EA", Hash: 2})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 2 {
		t.Errorf("wrote %d lines", lines)
	}
}

func TestCampaignFileWithMetadata(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.ethlog")
	meta := &Meta{
		PoolNames:         []string{"Ethermine", "Sparkpool"},
		Vantages:          []string{"NA", "EA", "WE", "CE"},
		RedundancyVantage: "WE-default",
		InterBlockNs:      13_300_000_000,
		DurationNs:        int64(2 * time.Hour),
		NetworkSize:       220,
		Seed:              7,
	}
	blocks, txs := sampleRecords()
	reg := sampleRegistry(t)
	writeLog(t, path, FormatBinary, meta, blocks, txs, reg)
	c := readPath(t, path)
	if c.meta == nil {
		t.Fatal("metadata lost")
	}
	if c.meta.Seed != 7 || c.meta.NetworkSize != 220 || c.meta.RedundancyVantage != "WE-default" {
		t.Errorf("meta = %+v", c.meta)
	}
	if len(c.meta.PoolNames) != 2 || c.meta.PoolNames[0] != "Ethermine" {
		t.Errorf("pool names = %v", c.meta.PoolNames)
	}
	if len(c.meta.Vantages) != 4 {
		t.Errorf("vantages = %v", c.meta.Vantages)
	}
	if time.Duration(c.meta.InterBlockNs) != 13300*time.Millisecond {
		t.Errorf("inter-block = %d", c.meta.InterBlockNs)
	}
	if len(c.blocks) != 2 || len(c.txs) != 2 || c.chain == nil {
		t.Error("records or chain lost alongside metadata")
	}
}

func TestChainBuilderIncremental(t *testing.T) {
	var b ChainBuilder
	if b.Registry() != nil {
		t.Fatal("empty builder must return nil registry")
	}
	if err := b.Add(&ChainBlock{Hash: 1, Number: 100}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(&ChainBlock{Hash: 2, Number: 101, Parent: 1, Miner: 3, MinedAtNs: int64(5 * time.Second)}); err != nil {
		t.Fatal(err)
	}
	reg := b.Registry()
	if reg == nil || reg.Len() != 2 {
		t.Fatalf("registry len = %v", reg)
	}
	blk, ok := reg.Get(2)
	if !ok || blk.Miner != 3 || blk.MinedAt != 5*time.Second || blk.ParentHash != 1 {
		t.Fatalf("rebuilt block = %+v", blk)
	}
	// An orphan entry (unknown parent) must surface as an error.
	if err := b.Add(&ChainBlock{Hash: 9, Number: 200, Parent: 42}); err == nil {
		t.Fatal("orphan chain entry accepted")
	}
}

func TestFileWriterStreams(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "stream.ethlog")
	fw, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fw.RecordBlock(measure.BlockRecord{Vantage: "NA", Hash: 7, Kind: "block"})
	fw.RecordTx(measure.TxRecord{Vantage: "EA", Hash: 8, Sender: 1})
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	got := readPath(t, path)
	blocks, txs := got.blocks, got.txs
	if len(blocks) != 1 || blocks[0].Hash != 7 || len(txs) != 1 || txs[0].Hash != 8 {
		t.Fatalf("roundtrip = %+v / %+v", blocks, txs)
	}
}

// mainUncleRefs counts the uncle references carried by main-chain
// blocks.
func mainUncleRefs(reg *chain.Registry) int {
	n := 0
	for _, b := range reg.MainChain() {
		n += len(b.Uncles)
	}
	return n
}
