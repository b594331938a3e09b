package rlp

import (
	"math/bits"

	"ethmeasure/internal/types"
)

// Wire-size derivation for the simulator's protocol messages: the
// devp2p payloads the paper's instrumented Geth logged are RLP lists,
// so message sizes come from actual encodings of representative
// structures. Hashes travel as 32-byte strings on the real wire even
// though the simulator indexes them with 64-bit IDs.

const (
	hashWireBytes    = 32
	addressWireBytes = 20
	sigWireBytes     = 32 // r and s each
)

func hashItem() Item { return String(make([]byte, hashWireBytes)) }

// TxItem builds a representative RLP structure for a transaction:
// [nonce, gasPrice, gasLimit, to, value, data, v, r, s].
func TxItem(tx *types.Transaction) Item {
	return List(
		Uint(tx.Nonce),
		Uint(tx.GasPrice*1_000_000_000), // priority units → wei-scale
		Uint(21_000),                    // plain-transfer gas limit
		String(make([]byte, addressWireBytes)),
		Uint(1_000_000_000_000_000_000),    // ~1 ETH value
		String(nil),                        // empty calldata
		Uint(38),                           // v
		String(make([]byte, sigWireBytes)), // r
		String(make([]byte, sigWireBytes)), // s
	)
}

// TxWireSize is the RLP-encoded size of a transaction.
func TxWireSize(tx *types.Transaction) int { return EncodedSize(TxItem(tx)) }

// HeaderItem builds a representative block header:
// [parentHash, uncleHash, coinbase, stateRoot, txRoot, receiptRoot,
// bloom(256), difficulty, number, gasLimit, gasUsed, time, extra,
// mixDigest, nonce(8)].
func HeaderItem(b *types.Block) Item {
	return List(
		hashItem(),                             // parent
		hashItem(),                             // uncle hash
		String(make([]byte, addressWireBytes)), // coinbase
		hashItem(),                             // state root
		hashItem(),                             // tx root
		hashItem(),                             // receipt root
		String(make([]byte, 256)),              // logs bloom
		Uint(2_500_000_000_000_000),            // difficulty scale of the era
		Uint(b.Number),
		Uint(8_000_000),                    // gas limit
		Uint(uint64(len(b.TxHashes))*21e3), // gas used
		Uint(1_554_076_800),                // timestamp scale (Apr 2019)
		String(make([]byte, 24)),           // extra-data (pool tag)
		hashItem(),                         // mix digest
		String(make([]byte, 8)),            // PoW nonce
	)
}

// BlockItem builds a NewBlock payload: [[header, txs, uncles], td].
func BlockItem(b *types.Block, txs []*types.Transaction) Item {
	txItems := make([]Item, 0, len(txs))
	for _, tx := range txs {
		txItems = append(txItems, TxItem(tx))
	}
	uncleItems := make([]Item, 0, len(b.Uncles))
	for range b.Uncles {
		uncleItems = append(uncleItems, HeaderItem(b))
	}
	return List(
		List(HeaderItem(b), Item{List: true, Items: txItems}, Item{List: true, Items: uncleItems}),
		Uint(b.TotalDiff),
	)
}

// BlockWireSize is the RLP-encoded size of a full NewBlock message.
// When tx objects are unavailable it sizes a representative transfer
// per hash.
func BlockWireSize(b *types.Block, txs []*types.Transaction) int {
	if txs == nil && len(b.TxHashes) > 0 {
		representative := &types.Transaction{Nonce: 1000, GasPrice: 20}
		perTx := TxWireSize(representative)
		header := EncodedSize(HeaderItem(b))
		payload := header + perTx*len(b.TxHashes) + EncodedSize(Uint(b.TotalDiff))
		return payload + 6 // outer list headers
	}
	return EncodedSize(BlockItem(b, txs))
}

// AnnouncementWireSize is the RLP size of one NewBlockHashes entry,
// [hash, number], computed without building the item: a 33-byte hash
// string, the number (one byte below 0x80, else a length byte plus its
// big-endian bytes) and a one-byte list header, the payload never
// exceeding 55 bytes.
func AnnouncementWireSize(number uint64) int {
	numberSize := 1
	if number >= 0x80 {
		numberSize += (bits.Len64(number) + 7) / 8
	}
	return 1 + 1 + hashWireBytes + numberSize
}
