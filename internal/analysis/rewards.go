package analysis

import (
	"sort"

	"ethmeasure/internal/types"
)

// PoolRewardRow aggregates one pool's earnings.
type PoolRewardRow struct {
	Pool string

	MainBlocks   int
	UncleBlocks  int // this pool's blocks rewarded as uncles
	UnclesCited  int // uncles this pool referenced in its main blocks
	OrphanBlocks int // side blocks never rewarded

	BlockRewardETH  float64 // static rewards from main blocks
	UncleRewardETH  float64 // rewards for own blocks cited as uncles
	NephewRewardETH float64 // rewards for citing others' uncles
	TotalETH        float64

	// SiblingUncleETH is the share of UncleRewardETH earned by uncles
	// at heights where the pool ALSO mined the main block — the
	// one-miner-fork profit the paper calls out in §III-C5.
	SiblingUncleETH float64
}

// RewardsResult quantifies the reward flow of a run under the chain's
// consensus protocol, including how much the reference (uncle)
// mechanism pays pools for one-miner forks — the paper §V argument
// that the uncle system, meant to help small miners, instead lets
// large pools "unethically profit from multiple rewards". The *ETH
// fields are denominated in the protocol's native coin units.
type RewardsResult struct {
	// Protocol names the consensus protocol the schedule came from.
	Protocol string
	// References reports whether the protocol pays referenced side
	// blocks at all (false for Bitcoin-style rules, where every fork
	// loser is pure waste).
	References bool

	Rows []PoolRewardRow // descending by total reward

	TotalETH        float64
	UncleETH        float64 // all uncle rewards
	SiblingUncleETH float64 // uncle rewards from one-miner forks
	SiblingShare    float64 // sibling / all uncle rewards

	// WastedBlocks are side blocks that earned nothing: pure loss of
	// mining power (paper §V: ~1% of the platform's resources).
	WastedBlocks int
	WastedShare  float64 // of all non-genesis blocks
}

// Rewards computes per-pool reward accounting from the registry,
// applying the registry protocol's reward schedule.
func Rewards(d *Dataset) *RewardsResult {
	reg := d.Chain
	proto := reg.Protocol()
	idx := d.index()
	genesis := reg.Genesis().Hash

	rows := make(map[types.PoolID]*PoolRewardRow)
	row := func(id types.PoolID) *PoolRewardRow {
		r, ok := rows[id]
		if !ok {
			r = &PoolRewardRow{Pool: d.PoolName(id)}
			rows[id] = r
		}
		return r
	}

	res := &RewardsResult{
		Protocol:   proto.Name(),
		References: proto.MaxReferencesPerBlock() > 0,
	}

	// Pass 1: main-chain blocks pay block + nephew rewards and assign
	// uncle rewards to the referenced blocks' miners.
	for _, b := range idx.main {
		if b.Hash == genesis || b.Miner == 0 {
			continue
		}
		r := row(b.Miner)
		r.MainBlocks++
		r.BlockRewardETH += proto.BlockReward()
		for _, uncleHash := range b.Uncles {
			uncle, ok := reg.Get(uncleHash)
			if !ok {
				continue
			}
			r.UnclesCited++
			r.NephewRewardETH += proto.NephewReward()
			ur := row(uncle.Miner)
			ur.UncleBlocks++
			reward := proto.ReferenceReward(b.Number - uncle.Number)
			ur.UncleRewardETH += reward
			res.UncleETH += reward
			// One-miner fork profit: the uncle's miner also mined the
			// main block at the uncle's own height.
			if m := idx.at(uncle.Number); m != nil && m.Miner == uncle.Miner {
				ur.SiblingUncleETH += reward
				res.SiblingUncleETH += reward
			}
		}
	}

	// Pass 2: side blocks that never became uncles are pure waste.
	total := 0
	reg.Blocks(func(b *types.Block) bool {
		if b.Hash == genesis || b.Miner == 0 {
			return true
		}
		total++
		if idx.onMain(b) || idx.referenced[b.Hash] {
			return true
		}
		row(b.Miner).OrphanBlocks++
		res.WastedBlocks++
		return true
	})
	if total > 0 {
		res.WastedShare = float64(res.WastedBlocks) / float64(total)
	}

	for _, r := range rows {
		r.TotalETH = r.BlockRewardETH + r.UncleRewardETH + r.NephewRewardETH
		res.TotalETH += r.TotalETH
		res.Rows = append(res.Rows, *r)
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		if res.Rows[i].TotalETH != res.Rows[j].TotalETH {
			return res.Rows[i].TotalETH > res.Rows[j].TotalETH
		}
		return res.Rows[i].Pool < res.Rows[j].Pool
	})
	if res.UncleETH > 0 {
		res.SiblingShare = res.SiblingUncleETH / res.UncleETH
	}
	return res
}
