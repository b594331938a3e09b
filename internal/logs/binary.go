package logs

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"ethmeasure/internal/measure"
	"ethmeasure/internal/types"
)

// Format names an on-disk log encoding. The zero value means "use the
// default" (binary); readers always auto-detect, so the format only
// matters when writing.
type Format string

// Supported log encodings.
const (
	// FormatBinary is the compact ethlog v1 framing: a magic header
	// followed by uvarint-length-prefixed record frames. Default.
	FormatBinary Format = "binary"
	// FormatJSONL is the original JSON Lines encoding, retained for
	// interop with external tooling.
	FormatJSONL Format = "jsonl"
)

// binaryMagic opens every ethlog file: a non-ASCII lead byte (so a
// JSONL stream, which starts with '{', can never collide), the format
// name, the version byte, and a newline that corrupting FTP-style
// CRLF translation would destroy. PNG does the same dance.
var binaryMagic = [8]byte{0x89, 'E', 'T', 'H', 'L', 'G', 1, '\n'}

// Frame kind bytes (first byte of every frame payload).
const (
	frameMeta  = 0x01
	frameBlock = 0x02
	frameTx    = 0x03
	frameChain = 0x04
)

// Block-record Kind strings are drawn from a tiny closed set, so they
// compress to one byte; code 0 falls back to an inline string for
// forward compatibility.
const (
	blockKindOther    = 0x00
	blockKindBlock    = 0x01 // "block"
	blockKindAnnounce = 0x02 // "announce"
	blockKindFetched  = 0x03 // "fetched"
)

// maxFrameLen bounds a frame payload (128 MiB). Real frames are tens
// of bytes — the occasional chain block with a large tx list stays
// far below this — so anything bigger is a corrupt length prefix, and
// rejecting it keeps the decoder from allocating attacker-sized
// buffers.
const maxFrameLen = 1 << 27

// appendString encodes a length-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendBlockRecord encodes one block observation as a frame payload.
// The same bytes feed the spill file and the record fingerprint, so
// the digest is pinned to the wire format.
func appendBlockRecord(b []byte, r *measure.BlockRecord) []byte {
	b = append(b, frameBlock)
	b = appendString(b, r.Vantage)
	b = binary.AppendVarint(b, int64(r.At))
	b = binary.AppendUvarint(b, uint64(r.Hash))
	b = binary.AppendUvarint(b, r.Number)
	b = binary.AppendVarint(b, int64(r.Miner))
	b = binary.AppendUvarint(b, uint64(r.Parent))
	b = binary.AppendVarint(b, int64(r.From))
	switch r.Kind {
	case "block":
		b = append(b, blockKindBlock)
	case "announce":
		b = append(b, blockKindAnnounce)
	case "fetched":
		b = append(b, blockKindFetched)
	default:
		b = append(b, blockKindOther)
		b = appendString(b, r.Kind)
	}
	b = binary.AppendVarint(b, int64(r.NTxs))
	b = binary.AppendVarint(b, int64(r.Size))
	return b
}

// appendTxRecord encodes one transaction observation.
func appendTxRecord(b []byte, r *measure.TxRecord) []byte {
	b = append(b, frameTx)
	b = appendString(b, r.Vantage)
	b = binary.AppendVarint(b, int64(r.At))
	b = binary.AppendUvarint(b, uint64(r.Hash))
	b = binary.AppendUvarint(b, uint64(r.Sender))
	b = binary.AppendUvarint(b, r.Nonce)
	b = binary.AppendVarint(b, int64(r.From))
	return b
}

// appendChainBlock encodes one chain-dump block.
func appendChainBlock(b []byte, cb *ChainBlock) []byte {
	b = append(b, frameChain)
	b = binary.AppendUvarint(b, uint64(cb.Hash))
	b = binary.AppendUvarint(b, cb.Number)
	b = binary.AppendUvarint(b, uint64(cb.Parent))
	b = binary.AppendVarint(b, int64(cb.Miner))
	b = binary.AppendUvarint(b, uint64(len(cb.TxHashes)))
	for _, h := range cb.TxHashes {
		b = binary.AppendUvarint(b, uint64(h))
	}
	b = binary.AppendUvarint(b, uint64(len(cb.Uncles)))
	for _, h := range cb.Uncles {
		b = binary.AppendUvarint(b, uint64(h))
	}
	b = binary.AppendUvarint(b, cb.TotalDiff)
	b = binary.AppendVarint(b, cb.MinedAtNs)
	b = binary.AppendVarint(b, int64(cb.Size))
	return b
}

// BinaryWriter streams entries as ethlog v1 frames. It implements
// measure.Recorder with a reusable scratch buffer: steady-state record
// encoding performs zero allocations.
type BinaryWriter struct {
	w       *bufio.Writer
	scratch []byte
	err     error
	n       int
}

var _ measure.Recorder = (*BinaryWriter)(nil)
var _ EntryWriter = (*BinaryWriter)(nil)

// NewBinaryWriter wraps w in an ethlog writer and emits the magic
// header (buffered; surfaced by Flush).
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	bw := bufio.NewWriterSize(w, 1<<16)
	b := &BinaryWriter{w: bw, scratch: make([]byte, 0, 256)}
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		b.err = fmt.Errorf("logs: write magic: %w", err)
	}
	return b
}

// frameHeaderReserve is the scratch-buffer prefix reserved for the
// frame's uvarint length. Payloads encode after it and the length is
// back-filled, so header and payload go to the bufio writer as one
// slice of the reusable scratch buffer — no per-frame allocation
// (a local header array would escape through io.Writer).
const frameHeaderReserve = binary.MaxVarintLen64

// beginFrame resets scratch to the payload start.
func (w *BinaryWriter) beginFrame() []byte {
	if cap(w.scratch) < frameHeaderReserve {
		w.scratch = make([]byte, frameHeaderReserve, 256)
	}
	return w.scratch[:frameHeaderReserve]
}

// endFrame back-fills the length prefix for the payload now sitting
// at w.scratch[frameHeaderReserve:] and writes the frame.
func (w *BinaryWriter) endFrame() {
	if w.err != nil {
		return
	}
	payload := uint64(len(w.scratch) - frameHeaderReserve)
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], payload)
	start := frameHeaderReserve - n
	copy(w.scratch[start:frameHeaderReserve], hdr[:n])
	if _, err := w.w.Write(w.scratch[start:]); err != nil {
		w.err = fmt.Errorf("logs: write frame: %w", err)
		return
	}
	w.n++
}

// RecordBlock implements measure.Recorder.
func (w *BinaryWriter) RecordBlock(r measure.BlockRecord) {
	if w.err != nil {
		return
	}
	w.scratch = appendBlockRecord(w.beginFrame(), &r)
	w.endFrame()
}

// RecordTx implements measure.Recorder.
func (w *BinaryWriter) RecordTx(r measure.TxRecord) {
	if w.err != nil {
		return
	}
	w.scratch = appendTxRecord(w.beginFrame(), &r)
	w.endFrame()
}

// Write emits one entry. Entries with a nil body for their kind are
// dropped (they carry no information; the JSONL decoder skips them
// too).
func (w *BinaryWriter) Write(e *Entry) {
	if w.err != nil {
		return
	}
	switch e.Kind {
	case KindMeta:
		data, err := json.Marshal(e.Meta)
		if err != nil {
			w.err = fmt.Errorf("logs: encode meta: %w", err)
			return
		}
		w.scratch = append(w.beginFrame(), frameMeta)
		w.scratch = append(w.scratch, data...)
		w.endFrame()
	case KindBlock:
		if e.Block != nil {
			w.RecordBlock(*e.Block)
		}
	case KindTx:
		if e.Tx != nil {
			w.RecordTx(*e.Tx)
		}
	case KindChain:
		if e.Chain != nil {
			w.scratch = appendChainBlock(w.beginFrame(), e.Chain)
			w.endFrame()
		}
	default:
		w.err = fmt.Errorf("logs: unknown entry kind %q", e.Kind)
	}
}

// Entries returns how many frames were written.
func (w *BinaryWriter) Entries() int { return w.n }

// Err returns the first write error seen, if any.
func (w *BinaryWriter) Err() error { return w.err }

// Flush drains buffered output and returns the first error seen.
func (w *BinaryWriter) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.w.Flush(); err != nil {
		w.err = fmt.Errorf("logs: flush: %w", err)
	}
	return w.err
}

// Decode errors. Wrapped with frame context by the Reader.
var (
	errTruncated = errors.New("truncated field")
	errTrailing  = errors.New("trailing bytes in frame")
)

// decoder walks one frame payload with full bounds checking. The first
// malformed field records its error and empties the payload, and every
// read after it returns zero, so a frame is checked once, by end: every
// malformed input yields an error, never a panic (pinned by FuzzDecode).
type decoder struct {
	p   []byte
	err error
}

// fail records err unless an earlier failure already stands.
func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.p = nil
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.p)
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.p = d.p[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.p)
	if n <= 0 {
		d.fail(errTruncated)
		return 0
	}
	d.p = d.p[n:]
	return v
}

func (d *decoder) byte() byte {
	if len(d.p) == 0 {
		d.fail(errTruncated)
		return 0
	}
	b := d.p[0]
	d.p = d.p[1:]
	return b
}

// str decodes a length-prefixed string, interning through tab: vantage
// names repeat millions of times per log, so each distinct string is
// allocated once. The map lookup on a []byte key conversion does not
// allocate.
func (d *decoder) str(tab map[string]string) string {
	n := d.uvarint()
	if n > uint64(len(d.p)) {
		d.fail(errTruncated)
	}
	if d.err != nil {
		return ""
	}
	raw := d.p[:n]
	d.p = d.p[n:]
	if s, ok := tab[string(raw)]; ok {
		return s
	}
	s := string(raw)
	tab[s] = s
	return s
}

func (d *decoder) hashes() []types.Hash {
	n := d.uvarint()
	// Each hash costs at least one byte, so a count beyond the
	// remaining payload is a corrupt length — reject before allocating.
	if n > uint64(len(d.p)) {
		d.fail(errTruncated)
	}
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]types.Hash, n)
	for i := range out {
		out[i] = types.Hash(d.uvarint())
	}
	return out
}

// end returns the frame's first failure, or errTrailing when the
// fields left bytes over.
func (d *decoder) end() error {
	if d.err == nil && len(d.p) != 0 {
		return errTrailing
	}
	return d.err
}

// decodeFrame decodes one frame payload. A block or tx frame decodes
// into the Reader's own entry and record, overwritten by the next call;
// a meta or chain frame decodes into fresh values, which callers keep
// (the metadata, and the chain slices a ChainBuilder holds on to).
func (r *Reader) decodeFrame(p []byte) (*Entry, error) {
	d := decoder{p: p}
	e := &r.entry
	switch kind := d.byte(); kind {
	case frameMeta:
		var m Meta
		if err := json.Unmarshal(d.p, &m); err != nil {
			return nil, fmt.Errorf("meta payload: %w", err)
		}
		return &Entry{Kind: KindMeta, Meta: &m}, nil
	case frameBlock:
		b := &r.block
		b.Vantage = d.str(r.intern)
		b.At = time.Duration(d.varint())
		b.Hash = types.Hash(d.uvarint())
		b.Number = d.uvarint()
		b.Miner = types.PoolID(d.varint())
		b.Parent = types.Hash(d.uvarint())
		b.From = types.NodeID(d.varint())
		switch kc := d.byte(); kc {
		case blockKindBlock:
			b.Kind = "block"
		case blockKindAnnounce:
			b.Kind = "announce"
		case blockKindFetched:
			b.Kind = "fetched"
		case blockKindOther:
			b.Kind = d.str(r.intern)
		default:
			d.fail(fmt.Errorf("unknown block kind code %d", kc))
		}
		b.NTxs = int(d.varint())
		b.Size = int(d.varint())
		*e = Entry{Kind: KindBlock, Block: b}
	case frameTx:
		t := &r.tx
		t.Vantage = d.str(r.intern)
		t.At = time.Duration(d.varint())
		t.Hash = types.Hash(d.uvarint())
		t.Sender = types.AccountID(d.uvarint())
		t.Nonce = d.uvarint()
		t.From = types.NodeID(d.varint())
		*e = Entry{Kind: KindTx, Tx: t}
	case frameChain:
		cb := &ChainBlock{
			Hash:   types.Hash(d.uvarint()),
			Number: d.uvarint(),
			Parent: types.Hash(d.uvarint()),
			Miner:  types.PoolID(d.varint()),
		}
		cb.TxHashes = d.hashes()
		cb.Uncles = d.hashes()
		cb.TotalDiff = d.uvarint()
		cb.MinedAtNs = d.varint()
		cb.Size = int(d.varint())
		e = &Entry{Kind: KindChain, Chain: cb}
	default:
		d.fail(fmt.Errorf("unknown frame kind 0x%02x", kind))
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return e, nil
}
