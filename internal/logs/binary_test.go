package logs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ethmeasure/internal/measure"
	"ethmeasure/internal/types"
)

// binarySample covers the encoder's edge cases: negative timestamps
// (NTP offsets perturb At below zero near the epoch), every coded
// Kind string plus the inline fallback, and empty vantages.
func binarySample() ([]measure.BlockRecord, []measure.TxRecord) {
	blocks := []measure.BlockRecord{
		{Vantage: "EA", At: -3 * time.Millisecond, Hash: 5, Number: 101, Miner: 1, Parent: 4, From: 7, Kind: "block", NTxs: 3, Size: 870},
		{Vantage: "NA", At: 180 * time.Millisecond, Hash: 5, Number: 101, Miner: -1, From: 8, Kind: "announce", Size: 48},
		{Vantage: "WE-default", At: 200 * time.Millisecond, Hash: 6, Number: 102, From: 9, Kind: "fetched", NTxs: 1, Size: 900},
		{Vantage: "", At: 0, Hash: 0, Kind: "exotic-kind", NTxs: -1, Size: -2},
	}
	txs := []measure.TxRecord{
		{Vantage: "EA", At: -50 * time.Millisecond, Hash: 21, Sender: 3, Nonce: 0, From: 7},
		{Vantage: "WE", At: 70 * time.Millisecond, Hash: 21, Sender: 3, Nonce: 9, From: 9},
	}
	return blocks, txs
}

func TestBinaryRoundTripInMemory(t *testing.T) {
	blocks, txs := binarySample()
	reg := sampleRegistry(t)
	meta := &Meta{Vantages: []string{"EA", "NA"}, Seed: 7, NetworkSize: 42}

	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	w.Write(&Entry{Kind: KindMeta, Meta: meta})
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
	if w.Entries() != 1+len(blocks)+len(txs)+reg.Len() {
		t.Errorf("entries = %d", w.Entries())
	}
	if !bytes.HasPrefix(buf.Bytes(), binaryMagic[:]) {
		t.Fatal("stream does not start with the ethlog magic")
	}

	c, err := readAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if c.meta == nil || c.meta.Seed != 7 || c.meta.NetworkSize != 42 {
		t.Errorf("meta = %+v", c.meta)
	}
	if len(c.blocks) != len(blocks) {
		t.Fatalf("blocks = %d, want %d", len(c.blocks), len(blocks))
	}
	for i := range blocks {
		if c.blocks[i] != blocks[i] {
			t.Errorf("block %d = %+v, want %+v", i, c.blocks[i], blocks[i])
		}
	}
	for i := range txs {
		if c.txs[i] != txs[i] {
			t.Errorf("tx %d = %+v, want %+v", i, c.txs[i], txs[i])
		}
	}
	if c.chain == nil || c.chain.Len() != reg.Len() {
		t.Fatalf("chain not rebuilt: %v", c.chain)
	}
	if c.chain.Head().Hash != reg.Head().Hash {
		t.Error("rebuilt head differs")
	}
	if mainUncleRefs(c.chain) != 1 {
		t.Error("uncle refs lost in binary round trip")
	}
}

func TestBinaryMatchesJSONLSemantics(t *testing.T) {
	blocks, txs := binarySample()
	reg := sampleRegistry(t)
	meta := &Meta{Vantages: []string{"EA"}, Seed: 3}

	dir := t.TempDir()
	jpath := filepath.Join(dir, "log.jsonl")
	bpath := filepath.Join(dir, "log.ethlog")
	writeLog(t, jpath, FormatJSONL, meta, blocks, txs, reg)
	writeLog(t, bpath, FormatBinary, meta, blocks, txs, reg)
	cj, cb := readPath(t, jpath), readPath(t, bpath)
	if len(cj.blocks) != len(cb.blocks) || len(cj.txs) != len(cb.txs) {
		t.Fatalf("record counts diverge: %d/%d vs %d/%d", len(cj.blocks), len(cj.txs), len(cb.blocks), len(cb.txs))
	}
	for i := range cj.blocks {
		if cj.blocks[i] != cb.blocks[i] {
			t.Errorf("block %d: jsonl %+v vs binary %+v", i, cj.blocks[i], cb.blocks[i])
		}
	}
	for i := range cj.txs {
		if cj.txs[i] != cb.txs[i] {
			t.Errorf("tx %d: jsonl %+v vs binary %+v", i, cj.txs[i], cb.txs[i])
		}
	}
	if !reflect.DeepEqual(cj.meta, cb.meta) {
		t.Errorf("meta diverges: %+v vs %+v", cj.meta, cb.meta)
	}
	if ChainFingerprint(cj.chain) != ChainFingerprint(cb.chain) {
		t.Error("rebuilt chains diverge across formats")
	}
	// The binary file should be substantially smaller.
	ji, err := os.Stat(jpath)
	if err != nil {
		t.Fatal(err)
	}
	bi, err := os.Stat(bpath)
	if err != nil {
		t.Fatal(err)
	}
	if bi.Size() >= ji.Size() {
		t.Errorf("binary file (%d bytes) not smaller than JSONL (%d bytes)", bi.Size(), ji.Size())
	}
}

func TestReaderFormatSniffing(t *testing.T) {
	var bbuf bytes.Buffer
	w := NewBinaryWriter(&bbuf)
	w.RecordBlock(measure.BlockRecord{Vantage: "EA", Hash: 1, Kind: "block"})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(bbuf.Bytes()))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if r.Format() != FormatBinary {
		t.Errorf("sniffed %q, want binary", r.Format())
	}

	r = NewReader(strings.NewReader(`{"kind":"tx","tx":{"v":"EA"}}` + "\n"))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if r.Format() != FormatJSONL {
		t.Errorf("sniffed %q, want jsonl", r.Format())
	}

	// Pinned binary must reject a JSONL stream outright.
	r = NewReaderFormat(strings.NewReader(`{"kind":"tx"}`+"\n"), FormatBinary)
	if _, err := r.Next(); err == nil {
		t.Fatal("pinned binary reader accepted JSONL")
	}
	// Pinned JSONL chokes on the binary magic (not valid JSON).
	r = NewReaderFormat(bytes.NewReader(bbuf.Bytes()), FormatJSONL)
	if _, err := r.Next(); err == nil {
		t.Fatal("pinned JSONL reader accepted an ethlog stream")
	}
}

func TestBinaryDecodeCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	w.RecordBlock(measure.BlockRecord{Vantage: "EA", At: time.Second, Hash: 1, Kind: "block"})
	w.RecordTx(measure.TxRecord{Vantage: "EA", Hash: 2})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	cases := map[string][]byte{
		"truncated frame":   valid[:len(valid)-2],
		"truncated magic":   valid[:6],
		"zero length frame": append(append([]byte{}, binaryMagic[:]...), 0x00),
		"huge length frame": append(append([]byte{}, binaryMagic[:]...), 0xff, 0xff, 0xff, 0xff, 0x7f),
		"unknown kind":      append(append([]byte{}, binaryMagic[:]...), 0x01, 0x7e),
		"trailing garbage": func() []byte {
			// A valid tx frame payload with an extra byte appended and the
			// length prefix widened to cover it.
			var b bytes.Buffer
			w := NewBinaryWriter(&b)
			w.RecordTx(measure.TxRecord{Vantage: "X", Hash: 1})
			w.Flush()
			raw := append([]byte{}, b.Bytes()...)
			raw[len(binaryMagic)]++ // bump frame length by one
			return append(raw, 0xab)
		}(),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			r := NewReader(bytes.NewReader(data))
			for {
				_, err := r.Next()
				if err == io.EOF {
					if name != "truncated magic" { // short prefix falls back to JSONL-EOF
						t.Fatal("corrupt stream decoded cleanly")
					}
					return
				}
				if err != nil {
					return // errored, as it must
				}
			}
		})
	}
}

// FuzzDecode pins the decoder contract: arbitrary input errors or
// terminates cleanly, but never panics and never spins.
func FuzzDecode(f *testing.F) {
	blocks, txs := binarySample()
	var seed bytes.Buffer
	w := NewBinaryWriter(&seed)
	w.Write(&Entry{Kind: KindMeta, Meta: &Meta{Vantages: []string{"EA"}, Seed: 1}})
	for _, r := range blocks {
		w.RecordBlock(r)
	}
	for _, r := range txs {
		w.RecordTx(r)
	}
	w.Write(&Entry{Kind: KindChain, Chain: &ChainBlock{Hash: 1, Number: 100, TxHashes: []types.Hash{2, 3}, Uncles: []types.Hash{4}}})
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(binaryMagic[:])
	f.Add([]byte(`{"kind":"block","block":{"v":"EA"}}` + "\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 1<<20; i++ {
			if _, err := r.Next(); err != nil {
				return
			}
		}
	})
}

// failAfterWriter errors every write after the first n bytes.
type failAfterWriter struct {
	n       int
	written int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.written+len(p) > w.n {
		return 0, errors.New("disk full")
	}
	w.written += len(p)
	return len(p), nil
}

func TestBinaryWriterStickyError(t *testing.T) {
	w := NewBinaryWriter(&failAfterWriter{n: len(binaryMagic)})
	w.Write(&Entry{Kind: KindMeta, Meta: &Meta{Seed: 1}})
	// The meta entry fits the bufio buffer; the failure must surface at
	// Flush and stick.
	if err := w.Flush(); err == nil {
		t.Fatal("flush over a full disk succeeded")
	}
	if w.Err() == nil {
		t.Fatal("Err() not sticky after failed flush")
	}
	before := w.Entries()
	w.RecordBlock(measure.BlockRecord{Vantage: "EA", Kind: "block"})
	if w.Entries() != before {
		t.Error("writer kept accepting records after error")
	}
}

func TestJSONLWriterErr(t *testing.T) {
	w := NewWriter(&failAfterWriter{})
	w.RecordBlock(measure.BlockRecord{Vantage: "EA", Kind: "block"})
	if err := w.Flush(); err == nil {
		t.Fatal("flush over a full disk succeeded")
	}
	if w.Err() == nil {
		t.Fatal("Err() nil after failed flush")
	}
}

// TestHugeJSONLLine is the regression test for the old scanner token
// limit: a chain-dump line far beyond 64 KB must decode.
func TestHugeJSONLLine(t *testing.T) {
	hashes := make([]types.Hash, 40_000)
	for i := range hashes {
		hashes[i] = types.Hash(i + 1)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(&Entry{Kind: KindChain, Chain: &ChainBlock{Hash: 1, Number: 100, TxHashes: hashes}})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 100_000 {
		t.Fatalf("test line too small to prove anything: %d bytes", buf.Len())
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	e, err := r.Next()
	if err != nil {
		t.Fatalf("big line: %v", err)
	}
	if e.Kind != KindChain || len(e.Chain.TxHashes) != len(hashes) {
		t.Fatalf("big line decoded wrong: kind=%q txs=%d", e.Kind, len(e.Chain.TxHashes))
	}
}

func TestEncodeZeroAllocs(t *testing.T) {
	w := NewBinaryWriter(io.Discard)
	block := measure.BlockRecord{Vantage: "WE-default", At: 123 * time.Millisecond, Hash: 99, Number: 1000, Miner: 3, Parent: 98, From: 17, Kind: "announce", NTxs: 12, Size: 4096}
	tx := measure.TxRecord{Vantage: "EA", At: 5 * time.Millisecond, Hash: 7, Sender: 2, Nonce: 11, From: 4}
	w.RecordBlock(block) // warm the scratch buffer
	w.RecordTx(tx)
	if avg := testing.AllocsPerRun(1000, func() { w.RecordBlock(block) }); avg != 0 {
		t.Errorf("RecordBlock allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { w.RecordTx(tx) }); avg != 0 {
		t.Errorf("RecordTx allocates %.1f/op, want 0", avg)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintZeroAllocs(t *testing.T) {
	fp := NewRecordFingerprinter()
	block := measure.BlockRecord{Vantage: "NA", At: -time.Millisecond, Hash: 99, Number: 1000, Miner: 3, Parent: 98, From: 17, Kind: "block", NTxs: 12, Size: 4096}
	tx := measure.TxRecord{Vantage: "EA", At: 5 * time.Millisecond, Hash: 7, Sender: 2, Nonce: 11, From: 4}
	fp.RecordBlock(block)
	fp.RecordTx(tx)
	if avg := testing.AllocsPerRun(1000, func() { fp.RecordBlock(block) }); avg != 0 {
		t.Errorf("fingerprint RecordBlock allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { fp.RecordTx(tx) }); avg != 0 {
		t.Errorf("fingerprint RecordTx allocates %.1f/op, want 0", avg)
	}
}

// TestFingerprintTracksWireFormat pins that the fingerprint hashes
// exactly the spill wire bytes: any divergence between the two paths
// would silently decouple checkpoint digests from the on-disk log.
func TestFingerprintTracksWireFormat(t *testing.T) {
	blocks, txs := binarySample()
	a, b := NewRecordFingerprinter(), NewRecordFingerprinter()
	for _, r := range blocks {
		a.RecordBlock(r)
		b.RecordBlock(r)
	}
	for _, r := range txs {
		a.RecordTx(r)
		b.RecordTx(r)
	}
	if a.Sum() != b.Sum() {
		t.Fatal("fingerprint not deterministic")
	}
	if a.Blocks() != uint64(len(blocks)) || a.Txs() != uint64(len(txs)) {
		t.Errorf("counts = %d/%d", a.Blocks(), a.Txs())
	}
	mut := blocks[0]
	mut.At++
	c := NewRecordFingerprinter()
	c.RecordBlock(mut)
	one := NewRecordFingerprinter()
	one.RecordBlock(blocks[0])
	if c.Sum() == one.Sum() {
		t.Error("fingerprint insensitive to record mutation")
	}
}
