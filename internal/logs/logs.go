// Package logs implements the on-disk log pipeline, mirroring how the
// paper's instrumented Geth wrote each observation to a dedicated log
// with a local timestamp and post-processed the files offline.
//
// Campaigns write ethlog v1 (see binary.go): a compact binary framing
// whose record encoder allocates nothing in steady state, streamed
// during the run and read back one entry at a time. JSON Lines (one
// JSON object per line) is kept as a read format and as the export
// target of ethanalyze -convert, for external tooling. Readers sniff
// the format from the first bytes, so every reader accepts either.
package logs

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"

	"ethmeasure/internal/chain"
	"ethmeasure/internal/consensus"
	"ethmeasure/internal/measure"
	"ethmeasure/internal/types"
)

// Entry is one log line: a tagged union of record types.
type Entry struct {
	Kind  string               `json:"kind"` // "meta" | "block" | "tx" | "chain"
	Meta  *Meta                `json:"meta,omitempty"`
	Block *measure.BlockRecord `json:"block,omitempty"`
	Tx    *measure.TxRecord    `json:"tx,omitempty"`
	Chain *ChainBlock          `json:"chain,omitempty"`
}

// Entry kinds.
const (
	KindMeta  = "meta"
	KindBlock = "block"
	KindTx    = "tx"
	KindChain = "chain"
)

// Meta carries campaign metadata the analysis pipeline needs beyond the
// raw records: pool-name mapping, vantage roles and timing parameters.
type Meta struct {
	PoolNames         []string `json:"pools"`
	Vantages          []string `json:"vantages"` // primary, presentation order
	RedundancyVantage string   `json:"redundancyVantage,omitempty"`
	InterBlockNs      int64    `json:"interBlockNs"`
	DurationNs        int64    `json:"durationNs"`
	NetworkSize       int      `json:"networkSize"`
	Seed              int64    `json:"seed"`
	// Scenarios lists the canonical tags of the interventions composed
	// into the campaign (empty for vanilla runs and pre-scenario logs).
	Scenarios []string `json:"scenarios,omitempty"`
	// Protocol is the canonical tag of the consensus protocol the
	// campaign ran under. Empty in pre-protocol logs, which were all
	// ethereum.
	Protocol string `json:"protocol,omitempty"`
	// ModelRevision is the simulation model revision that wrote the
	// log (core.ModelRevision). Zero in logs written before revisions
	// were recorded.
	ModelRevision int `json:"modelRevision,omitempty"`
}

// ChainBlock is the serialized form of a registry block (the "chain
// dump" the analysis needs to classify forks and uncles).
type ChainBlock struct {
	Hash      types.Hash   `json:"h"`
	Number    uint64       `json:"n"`
	Parent    types.Hash   `json:"p"`
	Miner     types.PoolID `json:"m"`
	TxHashes  []types.Hash `json:"x,omitempty"`
	Uncles    []types.Hash `json:"u,omitempty"`
	TotalDiff uint64       `json:"d"`
	MinedAtNs int64        `json:"t"`
	Size      int          `json:"s"`
}

// EntryWriter is the format-independent log sink: both the JSONL
// Writer and the ethlog BinaryWriter satisfy it, so spill plumbing is
// agnostic to the encoding.
type EntryWriter interface {
	measure.Recorder
	Write(e *Entry)
	Entries() int
	Err() error
	Flush() error
}

// NewWriterFormat creates an entry writer for the requested encoding
// ("" means the default, binary).
func NewWriterFormat(w io.Writer, format Format) EntryWriter {
	if format == FormatJSONL {
		return NewWriter(w)
	}
	return NewBinaryWriter(w)
}

// Writer streams entries to an io.Writer as JSON Lines. It implements
// measure.Recorder, so a vantage can log straight to disk.
type Writer struct {
	w   *bufio.Writer
	enc *json.Encoder
	err error
	n   int
}

var _ measure.Recorder = (*Writer)(nil)
var _ EntryWriter = (*Writer)(nil)

// NewWriter wraps w in a JSONL log writer.
func NewWriter(w io.Writer) *Writer {
	bw := bufio.NewWriterSize(w, 1<<16)
	return &Writer{w: bw, enc: json.NewEncoder(bw)}
}

// Write emits one entry.
func (w *Writer) Write(e *Entry) {
	if w.err != nil {
		return
	}
	if err := w.enc.Encode(e); err != nil {
		w.err = fmt.Errorf("logs: encode entry: %w", err)
		return
	}
	w.n++
}

// RecordBlock implements measure.Recorder.
func (w *Writer) RecordBlock(r measure.BlockRecord) {
	w.Write(&Entry{Kind: KindBlock, Block: &r})
}

// RecordTx implements measure.Recorder.
func (w *Writer) RecordTx(r measure.TxRecord) {
	w.Write(&Entry{Kind: KindTx, Tx: &r})
}

// Entries returns how many entries were written.
func (w *Writer) Entries() int { return w.n }

// Err returns the first write error seen, if any.
func (w *Writer) Err() error { return w.err }

// Flush drains buffered output and returns the first error seen.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.w.Flush(); err != nil {
		w.err = fmt.Errorf("logs: flush: %w", err)
	}
	return w.err
}

// WriteChain dumps every block in the registry (including genesis) to w.
func WriteChain(w EntryWriter, reg *chain.Registry) {
	reg.Blocks(func(b *types.Block) bool {
		w.Write(&Entry{Kind: KindChain, Chain: &ChainBlock{
			Hash:      b.Hash,
			Number:    b.Number,
			Parent:    b.ParentHash,
			Miner:     b.Miner,
			TxHashes:  b.TxHashes,
			Uncles:    b.Uncles,
			TotalDiff: b.TotalDiff,
			MinedAtNs: int64(b.MinedAt),
			Size:      b.Size,
		}})
		return true
	})
}

// FileWriter couples an entry writer with its backing file, for
// streaming a campaign's records to disk as they are produced
// (bounded-memory spill) instead of materializing them first.
type FileWriter struct {
	EntryWriter
	f *os.File
}

// CreateFile opens path (creating parent directories) for streaming
// log output in the default (binary) encoding.
func CreateFile(path string) (*FileWriter, error) {
	return CreateFileFormat(path, FormatBinary)
}

// CreateFileFormat opens path (creating parent directories) for
// streaming log output in the requested encoding.
func CreateFileFormat(path string, format Format) (*FileWriter, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("logs: mkdir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("logs: create: %w", err)
	}
	return &FileWriter{EntryWriter: NewWriterFormat(f, format), f: f}, nil
}

// Close flushes buffered output and closes the file, returning the
// first error seen.
func (fw *FileWriter) Close() error {
	err := fw.Flush()
	if cerr := fw.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("logs: close: %w", cerr)
	}
	return err
}

// Reader streams entries from an io.Reader, auto-detecting the
// encoding from the first bytes: the ethlog magic header selects the
// binary decoder, anything else is treated as JSONL. JSONL lines are
// read through an explicitly growing buffer, so entries larger than
// any fixed scanner token limit (big chain-dump lines) decode fine.
//
// A binary block or tx entry, and the record in it, belong to the
// Reader and stay valid only until the next call to Next, which
// decodes into the same values: a caller that keeps a record copies
// it (*e.Block, *e.Tx). This keeps the record loop free of
// allocations. Meta and chain entries, and every JSONL entry, are
// fresh values the caller may keep.
type Reader struct {
	br      *bufio.Reader
	format  Format
	sniffed bool
	line    int               // JSONL line counter (error context)
	frame   int               // binary frame counter (error context)
	buf     []byte            // reusable line buffer, and frames larger than br's buffer
	intern  map[string]string // decoded-string interning table

	// entry, block and tx hold the last binary record entry.
	entry Entry
	block measure.BlockRecord
	tx    measure.TxRecord
}

// NewReader wraps r in a format-sniffing log reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 1<<16)}
}

// NewReaderFormat wraps r in a log reader pinned to the given
// encoding ("" sniffs, like NewReader). A pinned binary reader still
// requires the magic header; a pinned JSONL reader skips sniffing
// entirely and parses every line as JSON.
func NewReaderFormat(r io.Reader, format Format) *Reader {
	rd := NewReader(r)
	if format != "" {
		rd.format = format
		rd.sniffed = format == FormatJSONL // binary must still consume the magic
	}
	return rd
}

// Format returns the detected (or pinned) encoding. Before the first
// Next call on a sniffing reader it may be empty.
func (r *Reader) Format() Format { return r.format }

// sniff determines the stream encoding from its first bytes and, for
// binary streams, consumes the magic header.
func (r *Reader) sniff() error {
	r.sniffed = true
	head, err := r.br.Peek(len(binaryMagic))
	if r.format == FormatBinary {
		// Pinned binary: the header is mandatory.
		if err != nil || [8]byte(head) != binaryMagic {
			return fmt.Errorf("logs: not an ethlog stream (missing magic header)")
		}
		_, err = r.br.Discard(len(binaryMagic))
		return err
	}
	if err == nil && [8]byte(head) == binaryMagic {
		r.format = FormatBinary
		_, err = r.br.Discard(len(binaryMagic))
		return err
	}
	// Short or non-magic prefix: JSONL (including the empty stream).
	r.format = FormatJSONL
	return nil
}

// Next returns the next entry, or io.EOF when exhausted. A binary
// block or tx entry is valid until the next call (see Reader).
func (r *Reader) Next() (*Entry, error) {
	if !r.sniffed {
		if err := r.sniff(); err != nil {
			return nil, err
		}
	}
	if r.format == FormatBinary {
		return r.nextBinary()
	}
	return r.nextJSONL()
}

// nextJSONL reads one JSON line, growing r.buf as needed — there is
// no upper bound on line length.
func (r *Reader) nextJSONL() (*Entry, error) {
	for {
		r.buf = r.buf[:0]
		for {
			chunk, err := r.br.ReadSlice('\n')
			r.buf = append(r.buf, chunk...)
			if err == bufio.ErrBufferFull {
				continue
			}
			if err == io.EOF {
				if len(r.buf) == 0 {
					return nil, io.EOF
				}
				break
			}
			if err != nil {
				return nil, fmt.Errorf("logs: read: %w", err)
			}
			break
		}
		r.line++
		raw := r.buf
		for len(raw) > 0 && (raw[len(raw)-1] == '\n' || raw[len(raw)-1] == '\r') {
			raw = raw[:len(raw)-1]
		}
		if len(raw) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("logs: line %d: %w", r.line, err)
		}
		switch e.Kind {
		case KindMeta, KindBlock, KindTx, KindChain:
		default:
			// The binary decoder rejects unknown frame kinds; JSONL must
			// not silently feed them to the analyzer either.
			return nil, fmt.Errorf("logs: line %d: unknown entry kind %q", r.line, e.Kind)
		}
		return &e, nil
	}
}

// nextBinary reads one length-prefixed frame and decodes it. A frame
// that fits br's buffer is decoded where it lies there; a larger one
// is read into r.buf.
func (r *Reader) nextBinary() (*Entry, error) {
	n, err := binary.ReadUvarint(r.br)
	if err == io.EOF {
		return nil, io.EOF
	}
	r.frame++
	if err != nil {
		return nil, fmt.Errorf("logs: frame %d length: %w", r.frame, err)
	}
	if n == 0 || n > maxFrameLen {
		return nil, fmt.Errorf("logs: frame %d: invalid length %d", r.frame, n)
	}
	var p []byte
	inPlace := n <= uint64(r.br.Size())
	if inPlace {
		p, err = r.br.Peek(int(n))
	} else {
		r.buf = slices.Grow(r.buf[:0], int(n))[:n]
		p = r.buf
		_, err = io.ReadFull(r.br, p)
	}
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("logs: frame %d: %w", r.frame, err)
	}
	if r.intern == nil {
		r.intern = make(map[string]string, 16)
	}
	e, err := r.decodeFrame(p)
	if inPlace {
		r.br.Discard(len(p)) // Peek buffered these bytes: it cannot fail
	}
	if err != nil {
		return nil, fmt.Errorf("logs: frame %d: %w", r.frame, err)
	}
	return e, nil
}

// ChainBuilder incrementally reconstructs a block registry from
// streamed chain entries. Dumps are written in creation order, so the
// first entry is genesis and parents always precede children; feed
// entries in file order.
type ChainBuilder struct {
	// Protocol, when non-nil, is installed on the rebuilt registry so
	// re-analysis applies the original campaign's consensus rules
	// (resolve it from Meta.Protocol). Nil keeps the registry default
	// (ethereum), matching pre-protocol logs.
	Protocol consensus.Protocol

	reg *chain.Registry
}

// Add incorporates one chain entry.
func (b *ChainBuilder) Add(cb *ChainBlock) error {
	if b.reg == nil {
		b.reg = chain.NewRegistryWithGenesis(cb.Number, cb.Hash)
		if b.Protocol != nil {
			b.reg.SetProtocol(b.Protocol)
		}
		return nil
	}
	blk := &types.Block{
		Hash:       cb.Hash,
		Number:     cb.Number,
		ParentHash: cb.Parent,
		Miner:      cb.Miner,
		TxHashes:   cb.TxHashes,
		Uncles:     cb.Uncles,
		Difficulty: 1,
		MinedAt:    time.Duration(cb.MinedAtNs),
		Size:       cb.Size,
	}
	if err := b.reg.Add(blk); err != nil {
		return fmt.Errorf("logs: rebuild chain: %w", err)
	}
	return nil
}

// Registry returns the reconstructed registry, or nil when no chain
// entries were fed.
func (b *ChainBuilder) Registry() *chain.Registry { return b.reg }

// ProtocolFromMeta resolves the consensus protocol a log's metadata
// names. Logs without a protocol tag predate pluggable consensus and
// resolve to ethereum.
func ProtocolFromMeta(m *Meta) (consensus.Protocol, error) {
	if m == nil || m.Protocol == "" {
		return consensus.Ethereum(), nil
	}
	spec, err := consensus.Parse(m.Protocol)
	if err != nil {
		return nil, fmt.Errorf("logs: meta protocol: %w", err)
	}
	proto, err := consensus.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("logs: meta protocol: %w", err)
	}
	return proto, nil
}
