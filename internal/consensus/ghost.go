package consensus

import (
	"fmt"
	"math"
	"time"

	"ethmeasure/internal/types"
)

// GhostInclusiveName addresses the inclusive-GHOST variant: a deeper
// reference window than Ethereum's, more references per block, and a
// geometrically decaying reference reward — the "inclusive blockchain
// protocols" family (Lewenberg, Sompolinsky, Zohar) that pays side
// chains to reduce the large-miner advantage the paper quantifies.
const GhostInclusiveName = "ghost-inclusive"

// Inclusive-GHOST defaults.
const (
	// GhostDefaultDepth is the default reference window (generations).
	GhostDefaultDepth = 10
	// GhostDefaultCap is the default references-per-block cap.
	GhostDefaultCap = 3
	// GhostDefaultDecay is the default per-generation reward decay.
	GhostDefaultDecay = 0.5
)

func init() {
	Register(Registration{
		Name:  GhostInclusiveName,
		Desc:  "inclusive-GHOST rules: deep reference window, decaying reference rewards",
		Usage: GhostInclusiveName + "[:depth=10,cap=3,decay=0.5,reward=2]",
		New: func(p *Params) (Protocol, error) {
			g := ghostInclusive{
				depth:  p.Int("depth", GhostDefaultDepth),
				cap:    p.Int("cap", GhostDefaultCap),
				decay:  p.Float("decay", GhostDefaultDecay),
				reward: p.Float("reward", EthereumBlockReward),
			}
			if g.depth < 1 {
				return nil, fmt.Errorf("depth %d < 1", g.depth)
			}
			if g.cap < 1 {
				return nil, fmt.Errorf("cap %d < 1", g.cap)
			}
			if g.decay <= 0 || g.decay > 1 {
				return nil, fmt.Errorf("decay %g outside (0, 1]", g.decay)
			}
			if g.reward <= 0 {
				return nil, fmt.Errorf("non-positive block reward %g", g.reward)
			}
			return g, nil
		},
	})
}

// ghostInclusive implements the inclusive variant. Fork choice stays
// heaviest-chain (like deployed Ethereum); what changes is how deep
// and how generously side blocks are folded back in.
type ghostInclusive struct {
	depth  int
	cap    int
	decay  float64
	reward float64
}

// Name implements Protocol.
func (ghostInclusive) Name() string { return GhostInclusiveName }

// Prefer implements the heaviest-total-difficulty fork choice with
// first-seen tie breaking.
func (ghostInclusive) Prefer(candidate, incumbent *types.Block) bool {
	return candidate.TotalDiff > incumbent.TotalDiff
}

// MaxReferenceDepth implements Protocol.
func (g ghostInclusive) MaxReferenceDepth() uint64 { return uint64(g.depth) }

// MaxReferencesPerBlock implements Protocol.
func (g ghostInclusive) MaxReferencesPerBlock() int { return g.cap }

// BlockReward implements Protocol.
func (g ghostInclusive) BlockReward() float64 { return g.reward }

// ReferenceReward pays decay^d of the block reward at depth d: a
// same-height sibling referenced immediately earns decay × reward,
// each further generation multiplies by decay again.
func (g ghostInclusive) ReferenceReward(depth uint64) float64 {
	if depth < 1 || depth > uint64(g.depth) {
		return 0
	}
	return g.reward * math.Pow(g.decay, float64(depth))
}

// NephewReward pays the including miner 1/32 of the block reward per
// reference, mirroring Ethereum's inclusion incentive.
func (g ghostInclusive) NephewReward() float64 { return g.reward / 32 }

// TargetInterval implements Protocol: inclusive protocols are designed
// for Ethereum-like block rates.
func (ghostInclusive) TargetInterval() time.Duration { return EthereumTargetInterval }
