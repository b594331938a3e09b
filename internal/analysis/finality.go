package analysis

import (
	"math"

	"ethmeasure/internal/types"
)

// FinalityRow evaluates one confirmation depth k.
type FinalityRow struct {
	Depth int

	// SinglePoolWindows is how many k-block main-chain windows were
	// produced entirely by one pool — windows in which that pool alone
	// decided a "final" suffix.
	SinglePoolWindows int

	// SinglePoolShare is SinglePoolWindows over all windows.
	SinglePoolShare float64

	// TopPoolTheory is the i.i.d. expectation p^(k-1) of a window
	// being single-pool given its first block belongs to the most
	// powerful pool of share p.
	TopPoolTheory float64

	// NakamotoCatchup is the classical probability that an attacker
	// with the top pool's power share, starting k blocks behind, ever
	// catches up ((q/p)^k) — the analysis behind Buterin's 12-block
	// recommendation that the paper argues is too optimistic under
	// pooled mining (§III-D).
	NakamotoCatchup float64
}

// FinalityResult examines the safety of the k-block confirmation rule
// against the measured pool concentration.
type FinalityResult struct {
	Rows       []FinalityRow
	MainBlocks int

	// TopPool and TopShare identify the most powerful pool observed.
	TopPool  string
	TopShare float64

	// TwelveBlockViolations counts 12-block windows controlled by a
	// single pool — each one a main-chain suffix the standard finality
	// rule would have called final while one entity could still have
	// replaced it.
	TwelveBlockViolations int
}

// Finality computes the k-block-rule analysis from the final main
// chain, sweeping depths 1..maxDepth.
func Finality(d *Dataset, maxDepth int) *FinalityResult {
	winners := make([]types.PoolID, 0, 1024)
	for _, b := range d.index().main {
		if b.Miner != 0 {
			winners = append(winners, b.Miner)
		}
	}
	return FinalityFromWinners(winners, d.PoolNames, maxDepth)
}

// FinalityFromWinners is Finality over an explicit winner sequence
// (the fast chain-level simulator feeds month- and history-scale runs).
func FinalityFromWinners(winners []types.PoolID, poolNames []string, maxDepth int) *FinalityResult {
	res := &FinalityResult{MainBlocks: len(winners)}
	if len(winners) == 0 || maxDepth < 1 {
		return res
	}

	counts := make(map[types.PoolID]int)
	for _, w := range winners {
		counts[w]++
	}
	var top types.PoolID
	for id, c := range counts {
		if top == 0 || c > counts[top] || (c == counts[top] && id < top) {
			top = id
		}
	}
	res.TopPool = poolNameOf(poolNames, top)
	res.TopShare = float64(counts[top]) / float64(len(winners))

	for k := 1; k <= maxDepth; k++ {
		rowResult := FinalityRow{Depth: k}
		windows := len(winners) - k + 1
		if windows > 0 {
			single := 0
			runLen := 1
			for i := 1; i < len(winners); i++ {
				if winners[i] == winners[i-1] {
					runLen++
				} else {
					runLen = 1
				}
				if runLen >= k {
					single++
				}
			}
			if k == 1 {
				single = len(winners)
			}
			rowResult.SinglePoolWindows = single
			rowResult.SinglePoolShare = float64(single) / float64(windows)
		}
		rowResult.TopPoolTheory = math.Pow(res.TopShare, float64(k-1))
		rowResult.NakamotoCatchup = nakamotoCatchup(res.TopShare, k)
		res.Rows = append(res.Rows, rowResult)
		if k == 12 {
			res.TwelveBlockViolations = rowResult.SinglePoolWindows
		}
	}
	return res
}

// nakamotoCatchup is the gambler's-ruin probability that an attacker
// controlling share q of the hash power, currently z blocks behind,
// ever overtakes the honest chain: (q/(1−q))^z for q < 0.5, else 1.
// (Nakamoto 2008 §11; Buterin's block-time analysis builds on it.)
func nakamotoCatchup(q float64, z int) float64 {
	if q <= 0 {
		return 0
	}
	p := 1 - q
	if q >= p {
		return 1
	}
	return math.Pow(q/p, float64(z))
}
