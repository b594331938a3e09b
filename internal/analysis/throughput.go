package analysis

import (
	"ethmeasure/internal/types"
)

// ThroughputResult quantifies the paper's §V resource-waste argument:
// forks, empty blocks and uncle mining all consume mining power and
// network capacity without advancing the main chain.
type ThroughputResult struct {
	// Blocks.
	TotalBlocks int
	MainBlocks  int
	SideBlocks  int

	// SidePowerShare is the fraction of all mining power spent on
	// blocks that never joined the main chain (paper §V: ~1% of the
	// platform's computational resources go to mining forks).
	SidePowerShare float64

	// Transactions.
	CommittedTxs  int
	CommittedTxPS float64 // committed transactions per second

	// EmptyBlockCapacityLoss is the transaction capacity thrown away
	// by empty main blocks, measured in potential transactions
	// (empty blocks × observed average of non-empty main blocks).
	EmptyBlockCapacityLoss float64

	// EffectiveUtilization is committed txs over the capacity of all
	// main blocks had each carried the average non-empty load.
	EffectiveUtilization float64

	// DuplicateTxInclusions counts transaction inclusions repeated
	// across fork blocks — network and validation work spent twice.
	DuplicateTxInclusions int
}

// Throughput computes the §V waste analysis.
func Throughput(d *Dataset) *ThroughputResult {
	reg := d.Chain
	idx := d.index()
	genesis := reg.Genesis().Hash

	res := &ThroughputResult{}
	nonEmptyMain := 0
	mainTxs := 0
	seenTx := make(map[types.Hash]bool, 4096)
	reg.Blocks(func(b *types.Block) bool {
		if b.Hash == genesis || b.Miner == 0 {
			return true
		}
		res.TotalBlocks++
		if idx.onMain(b) {
			res.MainBlocks++
			mainTxs += len(b.TxHashes)
			if !b.Empty() {
				nonEmptyMain++
			}
		} else {
			res.SideBlocks++
		}
		for _, h := range b.TxHashes {
			if seenTx[h] {
				res.DuplicateTxInclusions++
			}
			seenTx[h] = true
		}
		return true
	})

	if res.TotalBlocks > 0 {
		res.SidePowerShare = float64(res.SideBlocks) / float64(res.TotalBlocks)
	}
	res.CommittedTxs = mainTxs
	if d.Duration > 0 {
		res.CommittedTxPS = float64(mainTxs) / d.Duration.Seconds()
	}
	if nonEmptyMain > 0 {
		avgLoad := float64(mainTxs) / float64(nonEmptyMain)
		emptyMain := res.MainBlocks - nonEmptyMain
		res.EmptyBlockCapacityLoss = float64(emptyMain) * avgLoad
		potential := avgLoad * float64(res.MainBlocks)
		if potential > 0 {
			res.EffectiveUtilization = float64(mainTxs) / potential
		}
	}
	return res
}
