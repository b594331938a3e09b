package logs

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
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
		// A block frame of zero fields whose kind code is 0x7f.
		"unknown block kind": append(append([]byte{}, binaryMagic[:]...), 0x0b, frameBlock, 0, 0, 0, 0, 0, 0, 0, 0x7f, 0, 0),
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
			if bytes.HasPrefix(data, binaryMagic[:]) {
				matchReference(t, data)
			}
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
// terminates cleanly, but never panics and never spins, and a binary
// stream reads entry for entry, and error for error, as the reference
// reader does.
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
		if bytes.HasPrefix(data, binaryMagic[:]) {
			matchReference(t, data)
			return
		}
		r := NewReader(bytes.NewReader(data))
		for i := 0; i < 1<<20; i++ {
			if _, err := r.Next(); err != nil {
				return
			}
		}
	})
}

// matchReference reads the ethlog stream data with a Reader and with
// refReader side by side: each entry must be equal, and the first error
// (io.EOF included) must be the same error.
func matchReference(t *testing.T, data []byte) {
	t.Helper()
	r := NewReader(bytes.NewReader(data))
	ref := newRefReader(data)
	for i := 0; i < 1<<20; i++ {
		got, err := r.Next()
		want, werr := ref.next()
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("entry %d: error %v, reference %v", i, err, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("entry %d: %+v, reference %+v", i, got, want)
		}
	}
}

// refReader is the binary Reader as it was before records were decoded
// in place: every frame is read into a buffer, and refDecode decodes it
// into fresh values, checking each field as it goes.
type refReader struct {
	br     *bufio.Reader
	frame  int
	buf    []byte
	intern map[string]string
}

// newRefReader reads the frames after data's magic header.
func newRefReader(data []byte) *refReader {
	return &refReader{
		br:     bufio.NewReaderSize(bytes.NewReader(data[len(binaryMagic):]), 1<<16),
		intern: map[string]string{},
	}
}

func (r *refReader) next() (*Entry, error) {
	n, err := binary.ReadUvarint(r.br)
	if err == io.EOF {
		return nil, io.EOF
	}
	if err != nil {
		return nil, fmt.Errorf("logs: frame %d length: %w", r.frame+1, err)
	}
	if n == 0 || n > maxFrameLen {
		return nil, fmt.Errorf("logs: frame %d: invalid length %d", r.frame+1, n)
	}
	if uint64(cap(r.buf)) < n {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.br, r.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("logs: frame %d: %w", r.frame+1, err)
	}
	r.frame++
	e, err := refDecode(r.buf, r.intern)
	if err != nil {
		return nil, fmt.Errorf("logs: frame %d: %w", r.frame, err)
	}
	return e, nil
}

// refDecoder walks a frame payload, returning an error from every read.
type refDecoder struct {
	p []byte
}

func (d *refDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		return 0, errTruncated
	}
	d.p = d.p[n:]
	return v, nil
}

func (d *refDecoder) varint() (int64, error) {
	v, n := binary.Varint(d.p)
	if n <= 0 {
		return 0, errTruncated
	}
	d.p = d.p[n:]
	return v, nil
}

func (d *refDecoder) byte() (byte, error) {
	if len(d.p) == 0 {
		return 0, errTruncated
	}
	b := d.p[0]
	d.p = d.p[1:]
	return b, nil
}

func (d *refDecoder) str(tab map[string]string) (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.p)) {
		return "", errTruncated
	}
	raw := d.p[:n]
	d.p = d.p[n:]
	if s, ok := tab[string(raw)]; ok {
		return s, nil
	}
	s := string(raw)
	tab[s] = s
	return s, nil
}

func (d *refDecoder) hashes() ([]types.Hash, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.p)) {
		return nil, errTruncated
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]types.Hash, n)
	for i := range out {
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		out[i] = types.Hash(v)
	}
	return out, nil
}

func (d *refDecoder) done() error {
	if len(d.p) != 0 {
		return errTrailing
	}
	return nil
}

// refDecode decodes one frame payload into a fresh Entry.
func refDecode(p []byte, intern map[string]string) (*Entry, error) {
	d := refDecoder{p: p}
	kind, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch kind {
	case frameMeta:
		var m Meta
		if err := json.Unmarshal(d.p, &m); err != nil {
			return nil, fmt.Errorf("meta payload: %w", err)
		}
		return &Entry{Kind: KindMeta, Meta: &m}, nil
	case frameBlock:
		r := &measure.BlockRecord{}
		if r.Vantage, err = d.str(intern); err != nil {
			return nil, err
		}
		at, err := d.varint()
		if err != nil {
			return nil, err
		}
		r.At = time.Duration(at)
		h, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		r.Hash = types.Hash(h)
		if r.Number, err = d.uvarint(); err != nil {
			return nil, err
		}
		miner, err := d.varint()
		if err != nil {
			return nil, err
		}
		r.Miner = types.PoolID(miner)
		parent, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		r.Parent = types.Hash(parent)
		from, err := d.varint()
		if err != nil {
			return nil, err
		}
		r.From = types.NodeID(from)
		kc, err := d.byte()
		if err != nil {
			return nil, err
		}
		switch kc {
		case blockKindBlock:
			r.Kind = "block"
		case blockKindAnnounce:
			r.Kind = "announce"
		case blockKindFetched:
			r.Kind = "fetched"
		case blockKindOther:
			if r.Kind, err = d.str(intern); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("unknown block kind code %d", kc)
		}
		ntxs, err := d.varint()
		if err != nil {
			return nil, err
		}
		r.NTxs = int(ntxs)
		size, err := d.varint()
		if err != nil {
			return nil, err
		}
		r.Size = int(size)
		if err := d.done(); err != nil {
			return nil, err
		}
		return &Entry{Kind: KindBlock, Block: r}, nil
	case frameTx:
		r := &measure.TxRecord{}
		if r.Vantage, err = d.str(intern); err != nil {
			return nil, err
		}
		at, err := d.varint()
		if err != nil {
			return nil, err
		}
		r.At = time.Duration(at)
		h, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		r.Hash = types.Hash(h)
		sender, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		r.Sender = types.AccountID(sender)
		if r.Nonce, err = d.uvarint(); err != nil {
			return nil, err
		}
		from, err := d.varint()
		if err != nil {
			return nil, err
		}
		r.From = types.NodeID(from)
		if err := d.done(); err != nil {
			return nil, err
		}
		return &Entry{Kind: KindTx, Tx: r}, nil
	case frameChain:
		cb := &ChainBlock{}
		h, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		cb.Hash = types.Hash(h)
		if cb.Number, err = d.uvarint(); err != nil {
			return nil, err
		}
		parent, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		cb.Parent = types.Hash(parent)
		miner, err := d.varint()
		if err != nil {
			return nil, err
		}
		cb.Miner = types.PoolID(miner)
		if cb.TxHashes, err = d.hashes(); err != nil {
			return nil, err
		}
		if cb.Uncles, err = d.hashes(); err != nil {
			return nil, err
		}
		if cb.TotalDiff, err = d.uvarint(); err != nil {
			return nil, err
		}
		if cb.MinedAtNs, err = d.varint(); err != nil {
			return nil, err
		}
		size, err := d.varint()
		if err != nil {
			return nil, err
		}
		cb.Size = int(size)
		if err := d.done(); err != nil {
			return nil, err
		}
		return &Entry{Kind: KindChain, Chain: cb}, nil
	default:
		return nil, fmt.Errorf("unknown frame kind 0x%02x", kind)
	}
}

// recordLog encodes a meta entry and then n block and tx records
// cycling over four vantages and every block kind code.
func recordLog(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	w.Write(&Entry{Kind: KindMeta, Meta: &Meta{Vantages: []string{"NA", "EA"}, Seed: 5}})
	vantages := []string{"NA", "EA", "WE-default", ""}
	kinds := []string{"block", "announce", "fetched", "exotic-kind"}
	for i := 0; i < n; i++ {
		v := vantages[i%len(vantages)]
		if i%2 == 0 {
			w.RecordBlock(measure.BlockRecord{Vantage: v, At: time.Duration(i) * time.Millisecond, Hash: types.Hash(i/8 + 1),
				Number: uint64(i), Miner: types.PoolID(i % 5), Parent: types.Hash(i / 8), From: types.NodeID(i), Kind: kinds[i/2%len(kinds)], NTxs: i, Size: 540 + i})
		} else {
			w.RecordTx(measure.TxRecord{Vantage: v, At: time.Duration(i), Hash: types.Hash(i), Sender: types.AccountID(i % 7), Nonce: uint64(i), From: types.NodeID(i)})
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReaderRecordsAllocateNothing: once the strings of a log have been
// interned, reading a block or tx record allocates nothing.
func TestReaderRecordsAllocateNothing(t *testing.T) {
	const warm, runs = 16, 4000
	r := NewReader(bytes.NewReader(recordLog(t, 1+warm+runs+1)))
	for i := 0; i < 1+warm; i++ { // the meta frame, then every vantage and kind
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if e, err := r.Next(); err != nil || e.Kind == KindMeta {
			t.Fatalf("entry %+v, %v", e, err)
		}
	})
	if allocs != 0 {
		t.Errorf("Reader.Next allocates %.3f times per record, want 0", allocs)
	}
}

// TestReaderKeepsMetaAndChainEntries: the Reader reuses its block and
// tx entry, but a meta or chain entry read earlier keeps its values
// across later calls.
func TestReaderKeepsMetaAndChainEntries(t *testing.T) {
	meta := &Meta{PoolNames: []string{"Ethermine"}, Vantages: []string{"EA", "NA"}, Seed: 9, Protocol: "ethereum"}
	chains := []*ChainBlock{
		{Hash: 1, Number: 100},
		{Hash: 2, Number: 101, Parent: 1, Miner: 3, TxHashes: []types.Hash{7, 8}, Uncles: []types.Hash{5}, TotalDiff: 2, MinedAtNs: 90, Size: 700},
	}
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	w.Write(&Entry{Kind: KindMeta, Meta: meta})
	for i, cb := range chains {
		w.Write(&Entry{Kind: KindChain, Chain: cb})
		w.RecordBlock(measure.BlockRecord{Vantage: "EA", Hash: types.Hash(10 + i), Kind: "block"})
		w.RecordTx(measure.TxRecord{Vantage: "NA", Hash: types.Hash(20 + i)})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	var kept []*Entry
	var lastRecord *Entry
	for {
		e, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch e.Kind {
		case KindMeta, KindChain:
			kept = append(kept, e)
		default:
			if lastRecord != nil && e != lastRecord {
				t.Error("block and tx entries are not one reused entry")
			}
			lastRecord = e
		}
	}
	if len(kept) != 3 || !reflect.DeepEqual(kept[0].Meta, meta) {
		t.Fatalf("kept %d entries, meta %+v", len(kept), kept[0].Meta)
	}
	for i, cb := range chains {
		if got := kept[1+i]; got.Kind != KindChain || !reflect.DeepEqual(got.Chain, cb) {
			t.Errorf("chain entry %d = %+v, want %+v", i, got.Chain, cb)
		}
	}
}

// TestBinaryFrameLargerThanReadBuffer: a chain frame longer than the
// Reader's read buffer, between records decoded in place, reads as the
// reference reader reads it.
func TestBinaryFrameLargerThanReadBuffer(t *testing.T) {
	hashes := make([]types.Hash, 40_000)
	for i := range hashes {
		hashes[i] = types.Hash(i + 1)
	}
	var buf bytes.Buffer
	w := NewBinaryWriter(&buf)
	w.RecordTx(measure.TxRecord{Vantage: "EA", Hash: 1})
	w.Write(&Entry{Kind: KindChain, Chain: &ChainBlock{Hash: 1, Number: 100, TxHashes: hashes}})
	w.RecordBlock(measure.BlockRecord{Vantage: "EA", Hash: 1, Kind: "block"})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= 1<<16 {
		t.Fatalf("test frame too small to prove anything: %d bytes", buf.Len())
	}
	matchReference(t, buf.Bytes())
	matchReference(t, buf.Bytes()[:buf.Len()-20]) // cut inside the chain frame
	r := NewReader(bytes.NewReader(buf.Bytes()))
	for range 2 {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if cap(r.buf) <= 1<<16 {
		t.Errorf("the chain frame did not go through the frame buffer (cap %d)", cap(r.buf))
	}
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
