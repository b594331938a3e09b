package logs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"time"

	"ethmeasure/internal/chain"
	"ethmeasure/internal/measure"
	"ethmeasure/internal/types"
)

// Checkpoint is one logical campaign checkpoint: not a serialized
// scheduler (pending events hold closures and live object graphs that
// cannot round-trip through disk), but a verifiable barrier marker a
// deterministic re-execution is checked against. The simulation is a
// pure function of (Config, Seed), so restoring a killed run means
// replaying it from the start and proving — via the fingerprints below
// — that the replay passed through the exact same state at the
// checkpointed virtual time. A replay that diverges (code change,
// config drift, nondeterminism bug) fails loudly instead of silently
// producing different results under the same job id.
type Checkpoint struct {
	// SimTimeNs is the virtual time of the barrier, in nanoseconds
	// since the simulation epoch.
	SimTimeNs int64 `json:"sim_time_ns"`
	// BlockRecords and TxRecords count the measurement records emitted
	// up to the barrier.
	BlockRecords uint64 `json:"block_records"`
	TxRecords    uint64 `json:"tx_records"`
	// Blocks is the block-registry size at the barrier.
	Blocks int `json:"blocks"`
	// RecordFingerprint is the running SHA-256 over every measurement
	// record emitted up to the barrier, in emission order.
	RecordFingerprint string `json:"record_fingerprint"`
	// ChainFingerprint hashes the full block registry at the barrier.
	ChainFingerprint string `json:"chain_fingerprint"`
	// WallTime stamps when the checkpoint was written (informational;
	// not part of the verified state).
	WallTime time.Time `json:"wall_time"`
}

// WriteCheckpointFile atomically persists a checkpoint: written to a
// temp file in the target directory, then renamed over path, so a
// crash mid-write never leaves a truncated checkpoint behind.
func WriteCheckpointFile(path string, ck Checkpoint) error {
	data, err := json.MarshalIndent(ck, "", "  ")
	if err != nil {
		return fmt.Errorf("logs: marshal checkpoint: %w", err)
	}
	data = append(data, '\n')
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*.tmp")
	if err != nil {
		return fmt.Errorf("logs: checkpoint temp file: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("logs: write checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("logs: close checkpoint: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("logs: rename checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpointFile loads a checkpoint written by WriteCheckpointFile.
func ReadCheckpointFile(path string) (Checkpoint, error) {
	var ck Checkpoint
	data, err := os.ReadFile(path)
	if err != nil {
		return ck, fmt.Errorf("logs: read checkpoint: %w", err)
	}
	if err := json.Unmarshal(data, &ck); err != nil {
		return ck, fmt.Errorf("logs: parse checkpoint %s: %w", path, err)
	}
	return ck, nil
}

// RecordFingerprinter folds every measurement record into a running
// SHA-256, in emission order. It implements measure.Recorder, so it
// taps the record bus exactly like a log writer. Records are hashed
// through the same scratch-buffer binary encoding the ethlog spill
// writer uses — fmt-free, zero allocations per record — so the digest
// is pinned to the wire format and comparable across the batch and
// streaming pipelines.
//
// Sum does not disturb the running state, so mid-run checkpoint
// fingerprints and the final fingerprint come from one instance.
type RecordFingerprinter struct {
	h       hash.Hash
	scratch []byte
	blocks  uint64
	txs     uint64
}

// NewRecordFingerprinter creates an empty fingerprinter.
func NewRecordFingerprinter() *RecordFingerprinter {
	return &RecordFingerprinter{h: sha256.New(), scratch: make([]byte, 0, 256)}
}

// RecordBlock folds one block observation into the fingerprint.
func (r *RecordFingerprinter) RecordBlock(rec measure.BlockRecord) {
	r.blocks++
	r.scratch = appendBlockRecord(r.scratch[:0], &rec)
	r.h.Write(r.scratch)
}

// RecordTx folds one transaction observation into the fingerprint.
func (r *RecordFingerprinter) RecordTx(rec measure.TxRecord) {
	r.txs++
	r.scratch = appendTxRecord(r.scratch[:0], &rec)
	r.h.Write(r.scratch)
}

// Blocks returns how many block records have been folded in.
func (r *RecordFingerprinter) Blocks() uint64 { return r.blocks }

// Txs returns how many transaction records have been folded in.
func (r *RecordFingerprinter) Txs() uint64 { return r.txs }

// Sum returns the hex fingerprint of everything recorded so far
// without disturbing the running state.
func (r *RecordFingerprinter) Sum() string {
	return hex.EncodeToString(r.h.Sum(nil))
}

// ChainFingerprint hashes the full block registry in insertion order —
// the same digest the core equivalence suite compares across pipeline
// variants. Each block is hashed through the ethlog chain-frame
// encoding, the exact bytes a binary chain dump would contain.
func ChainFingerprint(reg *chain.Registry) string {
	h := sha256.New()
	scratch := make([]byte, 0, 256)
	reg.Blocks(func(b *types.Block) bool {
		cb := ChainBlock{
			Hash:      b.Hash,
			Number:    b.Number,
			Parent:    b.ParentHash,
			Miner:     b.Miner,
			TxHashes:  b.TxHashes,
			Uncles:    b.Uncles,
			TotalDiff: b.TotalDiff,
			MinedAtNs: int64(b.MinedAt),
			Size:      b.Size,
		}
		scratch = appendChainBlock(scratch[:0], &cb)
		h.Write(scratch)
		return true
	})
	return hex.EncodeToString(h.Sum(nil))
}
