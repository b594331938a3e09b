package consensus

import (
	"fmt"
	"time"

	"ethmeasure/internal/types"
)

// BitcoinName addresses the Bitcoin-style protocol: longest chain by
// work, no block references, fixed subsidy.
const BitcoinName = "bitcoin"

// Bitcoin's defaults for the paper's measurement period (spring 2019,
// between the 2016 and 2020 halvings).
const (
	// BitcoinBlockReward is the 12.5 BTC subsidy of the 2016–2020
	// halving epoch.
	BitcoinBlockReward = 12.5
	// BitcoinTargetInterval is Bitcoin's 10-minute difficulty target.
	BitcoinTargetInterval = 10 * time.Minute
)

func init() {
	Register(Registration{
		Name:  BitcoinName,
		Desc:  "Bitcoin-style rules: longest chain by work, no uncles, fixed subsidy",
		Usage: BitcoinName + "[:reward=12.5]",
		New: func(p *Params) (Protocol, error) {
			b := bitcoin{reward: p.Float("reward", BitcoinBlockReward)}
			if b.reward < 0 {
				return nil, fmt.Errorf("negative block reward %g", b.reward)
			}
			return b, nil
		},
	})
}

// bitcoin implements the no-reference longest-chain model the related
// mining-pool studies (Romiti et al.) assume: a side block earns
// nothing, ever — fork losers are pure waste.
type bitcoin struct {
	reward float64
}

// Name implements Protocol.
func (bitcoin) Name() string { return BitcoinName }

// Prefer implements the longest-chain-by-work fork choice. With the
// simulator's unit block difficulty this is chain length; first-seen
// wins ties, matching Bitcoin Core.
func (bitcoin) Prefer(candidate, incumbent *types.Block) bool {
	return candidate.TotalDiff > incumbent.TotalDiff
}

// MaxReferenceDepth implements Protocol: Bitcoin has no uncles.
func (bitcoin) MaxReferenceDepth() uint64 { return 0 }

// MaxReferencesPerBlock implements Protocol.
func (bitcoin) MaxReferencesPerBlock() int { return 0 }

// BlockReward implements Protocol.
func (b bitcoin) BlockReward() float64 { return b.reward }

// ReferenceReward implements Protocol: stale blocks earn nothing.
func (bitcoin) ReferenceReward(uint64) float64 { return 0 }

// NephewReward implements Protocol.
func (bitcoin) NephewReward() float64 { return 0 }

// TargetInterval implements Protocol.
func (bitcoin) TargetInterval() time.Duration { return BitcoinTargetInterval }
