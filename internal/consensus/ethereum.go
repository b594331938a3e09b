package consensus

import (
	"time"

	"ethmeasure/internal/types"
)

// EthereumName addresses the default protocol: Ethereum's
// Constantinople-era rules, exactly as the paper measured them.
const EthereumName = "ethereum"

// DefaultName is the protocol a zero-valued spec resolves to.
const DefaultName = EthereumName

// Ethereum's consensus parameters for the measurement period
// (Constantinople, EIP-1234).
const (
	// EthereumUncleDepth is how many generations back an uncle's parent
	// may sit relative to the including block (uncle.number ≥
	// block.number − 6, i.e. "within 7 generations").
	EthereumUncleDepth = 6
	// EthereumUnclesPerBlock is the cap on uncle references per block.
	EthereumUnclesPerBlock = 2
	// EthereumBlockReward is the static per-block subsidy in ETH.
	EthereumBlockReward = 2.0
	// EthereumNephewReward is paid per uncle referenced (1/32 of the
	// block reward).
	EthereumNephewReward = EthereumBlockReward / 32
	// EthereumTargetInterval is the measurement period's mean block
	// interval (paper §III-C1: 13.3 s).
	EthereumTargetInterval = 13300 * time.Millisecond
)

func init() {
	Register(Registration{
		Name:  EthereumName,
		Desc:  "Ethereum Constantinople rules: heaviest chain, 7-generation uncles, EIP-1234 rewards",
		Usage: EthereumName,
		New: func(*Params) (Protocol, error) {
			return Ethereum(), nil
		},
	})
}

// ethereum implements the paper's protocol. The empty struct keeps
// dispatch cheap on the per-import hot path.
type ethereum struct{}

// Ethereum returns the default protocol instance.
func Ethereum() Protocol { return ethereum{} }

// Name implements Protocol.
func (ethereum) Name() string { return EthereumName }

// Prefer implements the heaviest-total-difficulty fork choice with
// first-seen tie breaking, as deployed in Geth (Ethereum's "GHOST" is
// in name only; the deployed rule is heaviest chain).
func (ethereum) Prefer(candidate, incumbent *types.Block) bool {
	return candidate.TotalDiff > incumbent.TotalDiff
}

// MaxReferenceDepth implements Protocol.
func (ethereum) MaxReferenceDepth() uint64 { return EthereumUncleDepth }

// MaxReferencesPerBlock implements Protocol.
func (ethereum) MaxReferencesPerBlock() int { return EthereumUnclesPerBlock }

// BlockReward implements Protocol.
func (ethereum) BlockReward() float64 { return EthereumBlockReward }

// ReferenceReward implements Ethereum's uncle schedule: (8 − d) / 8 of
// the block reward at depth d. The d ≤ 7 bound mirrors the yellow
// paper's schedule; with the 6-generation validity window, depth 7 is
// never reached by an included uncle, so in practice the deepest paid
// tier is 2/8.
func (ethereum) ReferenceReward(depth uint64) float64 {
	if depth < 1 || depth > 7 {
		return 0
	}
	return float64(8-depth) / 8 * EthereumBlockReward
}

// NephewReward implements Protocol.
func (ethereum) NephewReward() float64 { return EthereumNephewReward }

// TargetInterval implements Protocol.
func (ethereum) TargetInterval() time.Duration { return EthereumTargetInterval }
