// Package analysis implements the paper's measurement-processing
// pipeline: one analyzer per table and figure of the evaluation
// (§III). Record-driven analyses stream through the Collector's
// shared arrival index; chain-driven analyses read the global block
// registry.
package analysis

import (
	"fmt"
	"time"

	"ethmeasure/internal/chain"
	"ethmeasure/internal/measure"
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

	// Blocks holds every block-related message reception at every
	// vantage (full blocks, announcements, fetched bodies). Nil unless
	// the campaign opted into record retention: by default the records
	// stream through the Collector instead of being retained.
	Blocks []measure.BlockRecord

	// Txs holds the first observation of each transaction per vantage.
	// Nil without record retention, like Blocks.
	Txs []measure.TxRecord

	// Chain is the global registry of all blocks created during the
	// run, including every fork.
	Chain *chain.Registry

	// PoolNames maps PoolID-1 to the pool's name.
	PoolNames []string

	// InterBlock is the configured mean inter-block time.
	InterBlock time.Duration

	// Duration is the measured (virtual) campaign length.
	Duration time.Duration
}

// PoolName resolves a PoolID to its display name.
func (d *Dataset) PoolName(id types.PoolID) string {
	i := int(id) - 1
	if i < 0 || i >= len(d.PoolNames) {
		return fmt.Sprintf("pool-%d", id)
	}
	return d.PoolNames[i]
}

// mainChainIndex maps every committed transaction to its including
// main-chain block and exposes the main chain itself.
type mainChainIndex struct {
	main      []*types.Block
	byHeight  map[uint64]*types.Block
	txToBlock map[types.Hash]*types.Block
}

func (d *Dataset) buildMainIndex() *mainChainIndex {
	main := d.Chain.MainChain()
	idx := &mainChainIndex{
		main:      main,
		byHeight:  make(map[uint64]*types.Block, len(main)),
		txToBlock: make(map[types.Hash]*types.Block, len(main)*8),
	}
	for _, b := range main {
		idx.byHeight[b.Number] = b
		for _, tx := range b.TxHashes {
			idx.txToBlock[tx] = b
		}
	}
	return idx
}

// DurationsToSeconds converts a slice of durations to float seconds.
func DurationsToSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// DurationsToMillis converts a slice of durations to float milliseconds.
func DurationsToMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}
