// Package txpool implements a miner-side transaction pool with
// Ethereum's per-sender nonce ordering. A transaction is executable
// only when every lower nonce from the same sender is either already
// included in the chain or present in the pool ahead of it; otherwise
// it stalls (a "nonce gap"). Out-of-order arrivals therefore delay
// commits, the effect the paper quantifies in §III-C2 / Figure 5.
//
// The pool keeps per-sender state only: a nonce-sorted pending queue
// and a watermark, the sender's next includable nonce. A transaction
// counts as included exactly when its nonce is below its sender's
// watermark; no per-transaction record of inclusion is kept. That rule
// relies on each (sender, nonce) pair naming one transaction, which
// the workload generator guarantees: it issues every nonce once.
package txpool

import (
	"cmp"
	"slices"

	"ethmeasure/internal/types"
)

// Pool holds pending transactions for one miner (pool gateway).
type Pool struct {
	pending  map[types.AccountID][]*types.Transaction // sorted by nonce
	nextOnce map[types.AccountID]uint64               // watermark: next includable nonce per sender
}

// New creates an empty pool.
func New() *Pool {
	return &Pool{
		pending:  make(map[types.AccountID][]*types.Transaction),
		nextOnce: make(map[types.AccountID]uint64),
	}
}

// Add inserts a transaction. A nonce below the sender's watermark
// (already included) and a (sender, nonce) already pending are
// rejected. It reports whether the transaction was accepted.
func (p *Pool) Add(tx *types.Transaction) bool {
	if tx.Nonce < p.nextOnce[tx.Sender] {
		return false
	}
	list := p.pending[tx.Sender]
	i, dup := slices.BinarySearchFunc(list, tx.Nonce, byNonce)
	if dup {
		return false
	}
	p.pending[tx.Sender] = slices.Insert(list, i, tx)
	return true
}

// Executable returns up to max transactions that can legally be
// included in the next block: for each sender, the maximal prefix of
// consecutive nonces starting at the sender's next includable nonce.
// Among executable transactions, higher gas prices are selected first
// (price-sorted selection, as in Geth's miner). The senders in skip
// are left out: a block built on another parent than the one the
// pool's watermarks follow may include only senders whose nonces agree
// on both.
func (p *Pool) Executable(max int, skip map[types.AccountID]bool) []*types.Transaction {
	if max <= 0 {
		return nil
	}
	type senderQueue struct {
		txs []*types.Transaction // executable prefix, ascending nonce
		idx int
	}
	queues := make([]senderQueue, 0, len(p.pending))
	for sender, list := range p.pending {
		if skip[sender] {
			continue
		}
		next := p.nextOnce[sender]
		k := 0
		for k < len(list) && list[k].Nonce == next+uint64(k) {
			k++ // a gap stalls the rest of this sender's txs
		}
		if k > 0 {
			queues = append(queues, senderQueue{txs: list[:k]})
		}
	}
	// Deterministic order across map iteration.
	slices.SortFunc(queues, func(a, b senderQueue) int {
		return cmp.Compare(a.txs[0].Sender, b.txs[0].Sender)
	})

	out := make([]*types.Transaction, 0, max)
	for len(out) < max {
		// Pick the head with the highest gas price; ties go to the
		// oldest transaction (price-then-time ordering, as in Geth's
		// miner — without the time tie-break, same-price senders can
		// starve arbitrarily long under sustained load).
		best := -1
		for i := range queues {
			q := &queues[i]
			if q.idx >= len(q.txs) {
				continue
			}
			if best == -1 || txPriorityLess(queues[best].txs[queues[best].idx], q.txs[q.idx]) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		out = append(out, queues[best].txs[queues[best].idx])
		queues[best].idx++
	}
	return out
}

// txPriorityLess reports whether a has lower inclusion priority than b:
// higher gas price wins, then earlier creation, then lower sender ID
// (a stable total order).
func txPriorityLess(a, b *types.Transaction) bool {
	if a.GasPrice != b.GasPrice {
		return a.GasPrice < b.GasPrice
	}
	if a.Created != b.Created {
		return a.Created > b.Created
	}
	return a.Sender > b.Sender
}

// MarkIncluded records that the given transactions were included in the
// miner's chain: each raises its sender's watermark past its nonce and
// leaves the pending set.
func (p *Pool) MarkIncluded(txs []*types.Transaction) {
	for _, tx := range txs {
		if tx.Nonce+1 > p.nextOnce[tx.Sender] {
			p.nextOnce[tx.Sender] = tx.Nonce + 1
		}
		list := p.pending[tx.Sender]
		if i, ok := slices.BinarySearchFunc(list, tx.Nonce, byNonce); ok && list[i].Hash == tx.Hash {
			if len(list) == 1 {
				delete(p.pending, tx.Sender)
			} else {
				p.pending[tx.Sender] = slices.Delete(list, i, i+1)
			}
		}
	}
}

// UnmarkIncluded returns the transactions of a block abandoned in a
// reorg to the pending set. txs must list each sender's nonces in
// ascending order, as a block built from Executable does; the list is
// walked in reverse, so each transaction below its sender's watermark
// lowers the watermark to its nonce and goes back to pending, and a
// block holding nonces n..m of one sender restores all of them. A
// transaction at or above the watermark is not included and is left
// alone. Blocks are unmarked newest first.
func (p *Pool) UnmarkIncluded(txs []*types.Transaction) {
	for i := len(txs) - 1; i >= 0; i-- {
		tx := txs[i]
		if tx.Nonce >= p.nextOnce[tx.Sender] {
			continue
		}
		p.nextOnce[tx.Sender] = tx.Nonce
		p.Add(tx)
	}
}

// byNonce orders a sender's pending list for binary search by nonce.
func byNonce(tx *types.Transaction, nonce uint64) int { return cmp.Compare(tx.Nonce, nonce) }
