// Package types defines the core datatypes shared by the chain, p2p,
// mining and measurement packages: hashes, identifiers, transactions
// and blocks. In the simulation, hashes are synthetic 64-bit IDs issued
// by a deterministic counter rather than Keccak digests — collision-free
// by construction and cheap as map keys — since no experiment in the
// paper depends on hash preimages.
package types

import (
	"fmt"
	"time"
)

// Hash identifies a block or transaction. The zero Hash is "no hash".
type Hash uint64

// String formats the hash like a truncated hex digest.
func (h Hash) String() string { return fmt.Sprintf("0x%012x", uint64(h)) }

// IsZero reports whether the hash is unset.
func (h Hash) IsZero() bool { return h == 0 }

// NodeID identifies a node in the simulated network.
type NodeID int32

// String formats the node ID.
func (id NodeID) String() string { return fmt.Sprintf("node-%d", int32(id)) }

// PoolID identifies a miner: either one of the named mining pools or
// the aggregate "remaining miners" population. The zero PoolID means
// "unknown miner".
type PoolID int32

// String formats the pool ID.
func (id PoolID) String() string { return fmt.Sprintf("pool-%d", int32(id)) }

// AccountID identifies a transaction sender.
type AccountID uint32

// String formats the account ID.
func (id AccountID) String() string { return fmt.Sprintf("acct-%d", uint32(id)) }

// Transaction is a user transaction. Every transaction from a sender
// carries a monotonically increasing nonce; miners may only include a
// transaction once all its predecessors are included (paper §III-C2).
type Transaction struct {
	Hash   Hash
	Sender AccountID
	// Submitted is set when the transaction is handed to the network
	// (p2p.Node.SubmitTx). A transaction floods the network once, so a
	// repeated submission is ignored.
	Submitted bool
	// Included is set when a mined block first carries the transaction
	// (txgen.Generator.NoteIncluded); fork blocks do not count it again.
	Included bool
	Nonce    uint64
	GasPrice uint64        // relative priority fee, arbitrary units
	Size     int           // wire size in bytes
	Created  time.Duration // virtual time the sender created it
}

// Block is a mined block. Transactions are referenced by hash; bodies
// travel with the block on the wire (Size accounts for them).
type Block struct {
	Hash       Hash
	Number     uint64 // height
	ParentHash Hash
	Miner      PoolID
	TxHashes   []Hash
	Uncles     []Hash        // uncle block hashes referenced by this block
	Difficulty uint64        // per-block difficulty (constant in simulation)
	TotalDiff  uint64        // cumulative difficulty up to and including this block
	MinedAt    time.Duration // virtual time the miner produced it
	Size       int           // wire size in bytes
}

// Empty reports whether the block contains no transactions
// (paper §III-C3: empty blocks as a form of selfish mining).
func (b *Block) Empty() bool { return len(b.TxHashes) == 0 }

// HashIssuer deterministically issues unique hashes. Not safe for
// concurrent use; the simulation is single-threaded.
type HashIssuer struct {
	next uint64
}

// NewHashIssuer returns an issuer whose first hash is derived from salt,
// letting independent issuers (blocks vs transactions) stay disjoint.
func NewHashIssuer(salt uint64) *HashIssuer {
	return &HashIssuer{next: salt<<48 + 1}
}

// Next returns a fresh, never-before-issued hash.
func (hi *HashIssuer) Next() Hash {
	h := Hash(hi.next)
	hi.next++
	return h
}

// BlockSize estimates the wire size of a block carrying n average
// transactions. Calibrated to 2019 mainnet: ~540-byte header+trailer
// and ~110 bytes per transaction in an RLP-encoded body, landing close
// to the ~20 kB average block of the measurement period.
func BlockSize(nTxs int) int {
	return 540 + nTxs*110
}

// TxSize is the average wire size of a transaction announcement.
const TxSize = 110

// AnnouncementSize is the wire size of a NewBlockHashes entry
// (32-byte hash + 8-byte number + envelope).
const AnnouncementSize = 48
