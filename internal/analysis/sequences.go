package analysis

import (
	"math"
	"sort"

	"ethmeasure/internal/types"
)

// PoolSequenceRow summarises the consecutive main-chain block runs of
// one pool (Figure 7).
type PoolSequenceRow struct {
	Pool       string
	PowerShare float64 // observed share of main-chain blocks
	Runs       int
	MaxRun     int
	RunCounts  map[int]int // run length -> count

	// CDF(L) = fraction of this pool's runs with length ≤ L, the series
	// Figure 7 plots on a log scale.
	CDF func(length int) float64 `json:"-"`

	// TheoreticalAtMax is the paper's estimate N·p^k of how many runs
	// of length ≥ MaxRun were expected over the observed chain
	// (§III-D: 0.259^8 · 201,086 ≈ 4 for Ethermine).
	TheoreticalAtMax float64
}

// SequencesResult reproduces Figure 7 and the §III-D security
// analysis: lengths of consecutive main-chain blocks mined by a single
// pool, the censorship window they enable, and the comparison with the
// i.i.d. theoretical expectation.
type SequencesResult struct {
	Rows       []PoolSequenceRow // descending by power share
	MainBlocks int

	// LongestRun and LongestPool identify the single longest sequence.
	LongestRun  int
	LongestPool string

	// CensorWindowSec is the longest observed censorship opportunity:
	// LongestRun × mean inter-block time, in seconds (paper: pools
	// could censor for 2-3 minutes).
	CensorWindowSec float64
}

// Sequences computes Figure 7 from the final main chain. topN bounds
// the per-pool rows (the paper plots the top 6 pools).
func Sequences(d *Dataset, topN int) *SequencesResult {
	winners := make([]types.PoolID, 0, 1024)
	for _, b := range d.index().main {
		if b.Miner == 0 {
			continue
		}
		winners = append(winners, b.Miner)
	}
	return SequencesFromWinners(winners, d.PoolNames, d.InterBlock.Seconds(), topN)
}

// SequencesFromWinners computes the Figure 7 analysis from an explicit
// winner sequence. The fast chain-only simulator feeds this directly
// for month-scale and whole-history runs.
func SequencesFromWinners(winners []types.PoolID, poolNames []string, interBlockSec float64, topN int) *SequencesResult {
	res := &SequencesResult{MainBlocks: len(winners)}
	type agg struct {
		blocks    int
		runs      int
		maxRun    int
		runCounts map[int]int
	}
	byPool := make(map[types.PoolID]*agg)
	get := func(id types.PoolID) *agg {
		a, ok := byPool[id]
		if !ok {
			a = &agg{runCounts: make(map[int]int, 8)}
			byPool[id] = a
		}
		return a
	}

	for i := 0; i < len(winners); {
		j := i
		for j < len(winners) && winners[j] == winners[i] {
			j++
		}
		runLen := j - i
		a := get(winners[i])
		a.blocks += runLen
		a.runs++
		a.runCounts[runLen]++
		if runLen > a.maxRun {
			a.maxRun = runLen
		}
		if runLen > res.LongestRun {
			res.LongestRun = runLen
			res.LongestPool = poolNameOf(poolNames, winners[i])
		}
		i = j
	}
	res.CensorWindowSec = float64(res.LongestRun) * interBlockSec

	ids := make([]types.PoolID, 0, len(byPool))
	for id := range byPool {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if byPool[ids[i]].blocks != byPool[ids[j]].blocks {
			return byPool[ids[i]].blocks > byPool[ids[j]].blocks
		}
		return ids[i] < ids[j]
	})
	if topN > 0 && len(ids) > topN {
		ids = ids[:topN]
	}
	for _, id := range ids {
		a := byPool[id]
		share := 0.0
		if len(winners) > 0 {
			share = float64(a.blocks) / float64(len(winners))
		}
		counts := a.runCounts
		runs := a.runs
		row := PoolSequenceRow{
			Pool:       poolNameOf(poolNames, id),
			PowerShare: share,
			Runs:       runs,
			MaxRun:     a.maxRun,
			RunCounts:  counts,
			CDF: func(length int) float64 {
				if runs == 0 {
					return 0
				}
				c := 0
				for l, n := range counts {
					if l <= length {
						c += n
					}
				}
				return float64(c) / float64(runs)
			},
			TheoreticalAtMax: ExpectedSequences(share, a.maxRun, len(winners)),
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

func poolNameOf(names []string, id types.PoolID) string {
	i := int(id) - 1
	if i < 0 || i >= len(names) {
		return types.PoolID(id).String()
	}
	return names[i]
}

// ExpectedSequences is the paper's §III-D estimate of how many
// k-block runs a pool with power share p should produce over n blocks:
// n·p^k (e.g. 0.259^8 · 201,086 ≈ 4 for Ethermine's 8-block runs).
func ExpectedSequences(p float64, k, n int) float64 {
	if p <= 0 || k <= 0 || n <= 0 {
		return 0
	}
	return float64(n) * math.Pow(p, float64(k))
}

// HistoricalSequenceCounts counts runs of length ≥ each threshold in a
// winner sequence — the whole-blockchain scan of §III-D, which found
// 102, 41, 4 and 1 sequences of ≥10, ≥11, ≥12 and ≥14 blocks over the
// chain's full history.
func HistoricalSequenceCounts(winners []types.PoolID, thresholds []int) map[int]int {
	counts := make(map[int]int, len(thresholds))
	for i := 0; i < len(winners); {
		j := i
		for j < len(winners) && winners[j] == winners[i] {
			j++
		}
		runLen := j - i
		for _, t := range thresholds {
			if runLen >= t {
				counts[t]++
			}
		}
		i = j
	}
	return counts
}
