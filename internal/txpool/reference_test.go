package txpool

import (
	"sort"

	"ethmeasure/internal/types"
)

// refPool is the pool as it was before inclusion followed from the
// nonce watermark: besides the per-sender queues and watermarks it
// records every included transaction by hash, indexes the pending set
// by hash and lets a higher-priced transaction replace a pending one of
// the same (sender, nonce). The differential tests drive it beside Pool
// to show the watermark rule alone gives the same pending lists,
// watermarks and selections.
type refPool struct {
	pending  map[types.AccountID][]*types.Transaction // sorted by nonce
	byHash   map[types.Hash]*types.Transaction
	nextOnce map[types.AccountID]uint64 // next includable nonce per sender
	included map[types.Hash]bool        // txs included in the miner's chain
}

func newRefPool() *refPool {
	return &refPool{
		pending:  make(map[types.AccountID][]*types.Transaction),
		byHash:   make(map[types.Hash]*types.Transaction),
		nextOnce: make(map[types.AccountID]uint64),
		included: make(map[types.Hash]bool),
	}
}

func (p *refPool) Add(tx *types.Transaction) bool {
	if _, dup := p.byHash[tx.Hash]; dup {
		return false
	}
	if p.included[tx.Hash] {
		return false
	}
	if tx.Nonce < p.nextOnce[tx.Sender] {
		return false // stale: a tx with this nonce already committed
	}
	list := p.pending[tx.Sender]
	// Insert keeping the per-sender list sorted by nonce; replace an
	// existing same-nonce tx only if the newcomer pays more.
	i := sort.Search(len(list), func(i int) bool { return list[i].Nonce >= tx.Nonce })
	if i < len(list) && list[i].Nonce == tx.Nonce {
		if tx.GasPrice <= list[i].GasPrice {
			return false
		}
		delete(p.byHash, list[i].Hash)
		list[i] = tx
	} else {
		list = append(list, nil)
		copy(list[i+1:], list[i:])
		list[i] = tx
	}
	p.pending[tx.Sender] = list
	p.byHash[tx.Hash] = tx
	return true
}

func (p *refPool) Executable(max int) []*types.Transaction {
	if max <= 0 {
		return nil
	}
	type senderQueue struct {
		txs []*types.Transaction // executable prefix, ascending nonce
		idx int
	}
	var queues []*senderQueue
	for sender, list := range p.pending {
		next := p.nextOnce[sender]
		var prefix []*types.Transaction
		for _, tx := range list {
			if tx.Nonce != next {
				break // gap: the rest of this sender's txs stall
			}
			prefix = append(prefix, tx)
			next++
		}
		if len(prefix) > 0 {
			queues = append(queues, &senderQueue{txs: prefix})
		}
	}
	// Deterministic order across map iteration.
	sort.Slice(queues, func(i, j int) bool {
		return queues[i].txs[0].Sender < queues[j].txs[0].Sender
	})

	out := make([]*types.Transaction, 0, max)
	for len(out) < max {
		best := -1
		for i, q := range queues {
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

func (p *refPool) MarkIncluded(txs []*types.Transaction) {
	for _, tx := range txs {
		p.included[tx.Hash] = true
		if tx.Nonce+1 > p.nextOnce[tx.Sender] {
			p.nextOnce[tx.Sender] = tx.Nonce + 1
		}
		p.removePending(tx)
	}
}

func (p *refPool) UnmarkIncluded(txs []*types.Transaction) {
	for _, tx := range txs {
		if !p.included[tx.Hash] {
			continue
		}
		delete(p.included, tx.Hash)
		if p.nextOnce[tx.Sender] > tx.Nonce {
			p.nextOnce[tx.Sender] = tx.Nonce
		}
		p.Add(tx)
	}
}

func (p *refPool) NextNonce(a types.AccountID) uint64 { return p.nextOnce[a] }

func (p *refPool) removePending(tx *types.Transaction) {
	if _, ok := p.byHash[tx.Hash]; !ok {
		return
	}
	delete(p.byHash, tx.Hash)
	list := p.pending[tx.Sender]
	i := sort.Search(len(list), func(i int) bool { return list[i].Nonce >= tx.Nonce })
	if i < len(list) && list[i].Hash == tx.Hash {
		list = append(list[:i], list[i+1:]...)
		if len(list) == 0 {
			delete(p.pending, tx.Sender)
		} else {
			p.pending[tx.Sender] = list
		}
	}
}

func (p *refPool) PendingOf(a types.AccountID) []*types.Transaction {
	list := p.pending[a]
	out := make([]*types.Transaction, len(list))
	copy(out, list)
	return out
}
