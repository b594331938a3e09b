// Package analysis implements the paper's measurement-processing
// pipeline: one analyzer per table and figure of the evaluation
// (§III). Record-driven analyses stream through the Collector's
// shared arrival index; chain-driven analyses read one main-chain
// index derived once from the global block registry.
package analysis

import (
	"fmt"
	"time"

	"ethmeasure/internal/chain"
	"ethmeasure/internal/types"
)

// Dataset bundles everything one campaign produced.
type Dataset struct {
	// Vantages lists the primary vantage names in presentation order
	// (the paper uses WE, CE, NA, EA in Figure 2). Records from other
	// (auxiliary) vantages — e.g. the default-peers redundancy node —
	// are excluded from first-observation and delay analyses, matching
	// the paper's separate subsidiary measurement.
	Vantages []string

	// Chain is the global registry of all blocks created during the
	// run, including every fork.
	Chain *chain.Registry

	// PoolNames maps PoolID-1 to the pool's name.
	PoolNames []string

	// InterBlock is the configured mean inter-block time.
	InterBlock time.Duration

	// Duration is the measured (virtual) campaign length.
	Duration time.Duration

	idx *chainIndex // see index
}

// PoolName resolves a PoolID to its display name.
func (d *Dataset) PoolName(id types.PoolID) string {
	i := int(id) - 1
	if i < 0 || i >= len(d.PoolNames) {
		return fmt.Sprintf("pool-%d", id)
	}
	return d.PoolNames[i]
}

// chainIndex is the final main chain and every index the chain
// analyses derive from it, built once per registry state.
type chainIndex struct {
	reg *chain.Registry
	n   int // reg.Len() at build time

	// main runs from genesis to head: main[i] is at height
	// main[0].Number+i.
	main []*types.Block
	// referenced holds every hash a main-chain block cites as an uncle.
	referenced map[types.Hash]bool
	// sideChildren maps a block to its children off the main chain, in
	// creation order.
	sideChildren map[types.Hash][]*types.Block
	// txBlock maps each committed transaction to its including
	// main-chain block; built on first use (the tx analyses only).
	txBlock map[types.Hash]*types.Block
}

// index returns the main-chain index of d.Chain, rebuilding it when
// the registry was replaced or has grown since the last call. Like the
// Collector, it is not safe for concurrent use.
func (d *Dataset) index() *chainIndex {
	if idx := d.idx; idx != nil && idx.reg == d.Chain && idx.n == d.Chain.Len() {
		return idx
	}
	main := d.Chain.MainChain()
	idx := &chainIndex{
		reg:          d.Chain,
		n:            d.Chain.Len(),
		main:         main,
		referenced:   make(map[types.Hash]bool),
		sideChildren: make(map[types.Hash][]*types.Block),
	}
	for _, b := range main {
		for _, u := range b.Uncles {
			idx.referenced[u] = true
		}
	}
	d.Chain.Blocks(func(b *types.Block) bool {
		if !idx.onMain(b) {
			idx.sideChildren[b.ParentHash] = append(idx.sideChildren[b.ParentHash], b)
		}
		return true
	})
	d.idx = idx
	return idx
}

// at returns the main-chain block at height n, or nil when the main
// chain has no block there.
func (idx *chainIndex) at(n uint64) *types.Block {
	base := idx.main[0].Number
	if n < base || n-base >= uint64(len(idx.main)) {
		return nil
	}
	return idx.main[n-base]
}

// onMain reports whether b is on the main chain.
func (idx *chainIndex) onMain(b *types.Block) bool { return idx.at(b.Number) == b }

// includer returns the main-chain block that includes transaction h.
func (idx *chainIndex) includer(h types.Hash) (*types.Block, bool) {
	if idx.txBlock == nil {
		idx.txBlock = make(map[types.Hash]*types.Block, len(idx.main)*8)
		for _, b := range idx.main {
			for _, tx := range b.TxHashes {
				idx.txBlock[tx] = b
			}
		}
	}
	b, ok := idx.txBlock[h]
	return b, ok
}
