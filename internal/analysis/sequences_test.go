package analysis

import (
	"math"
	"testing"

	"ethmeasure/internal/types"
)

func TestSequencesFromWinnersRuns(t *testing.T) {
	// Pools: 1,1,1,2,1,1,2,2,2,2 → pool 1 runs {3,2}, pool 2 runs {1,4}.
	winners := []types.PoolID{1, 1, 1, 2, 1, 1, 2, 2, 2, 2}
	names := []string{"Alpha", "Beta"}
	res := SequencesFromWinners(winners, names, 13.3, 10)

	if res.MainBlocks != 10 {
		t.Fatalf("blocks = %d", res.MainBlocks)
	}
	if res.LongestRun != 4 || res.LongestPool != "Beta" {
		t.Errorf("longest = %d by %s", res.LongestRun, res.LongestPool)
	}
	if math.Abs(res.CensorWindowSec-4*13.3) > 1e-9 {
		t.Errorf("censor window = %f", res.CensorWindowSec)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Both pools mined 5 blocks; rows sorted by share then ID.
	alpha := res.Rows[0]
	if alpha.Pool != "Alpha" {
		alpha = res.Rows[1]
	}
	if alpha.Runs != 2 || alpha.MaxRun != 3 {
		t.Errorf("alpha = %+v", alpha)
	}
	if alpha.RunCounts[3] != 1 || alpha.RunCounts[2] != 1 {
		t.Errorf("alpha run counts = %v", alpha.RunCounts)
	}
	if got := alpha.CDF(2); got != 0.5 {
		t.Errorf("alpha CDF(2) = %f", got)
	}
	if got := alpha.CDF(3); got != 1 {
		t.Errorf("alpha CDF(3) = %f", got)
	}
	if alpha.PowerShare != 0.5 {
		t.Errorf("alpha share = %f", alpha.PowerShare)
	}
}

func TestSequencesTopNLimit(t *testing.T) {
	winners := []types.PoolID{1, 2, 3, 1, 2, 3}
	res := SequencesFromWinners(winners, []string{"A", "B", "C"}, 13.3, 2)
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d, want top-2 only", len(res.Rows))
	}
}

func TestSequencesFromRegistry(t *testing.T) {
	f := newFixture(t)
	parent := f.reg.Genesis()
	for _, miner := range []types.PoolID{1, 1, 2, 2, 2} {
		parent = f.block(parent, miner, nil)
	}
	res := Sequences(f.d, 5)
	if res.MainBlocks != 5 {
		t.Fatalf("blocks = %d", res.MainBlocks)
	}
	if res.LongestRun != 3 || res.LongestPool != "Sparkpool" {
		t.Errorf("longest = %d by %s", res.LongestRun, res.LongestPool)
	}
}

func TestExpectedSequencesPaperMath(t *testing.T) {
	// §III-D: 0.259^8 × 201,086 ≈ 4 for Ethermine's 8-block runs.
	got := ExpectedSequences(0.259, 8, 201086)
	if got < 3.5 || got > 4.5 {
		t.Errorf("expected sequences = %f, paper computes ≈4", got)
	}
	// Sparkpool: 0.2269^9 × 201,086 ≈ 0.3 → "once in three months".
	got = ExpectedSequences(0.2269, 9, 201086)
	if got < 0.25 || got > 0.4 {
		t.Errorf("sparkpool expectation = %f, paper computes ≈0.3", got)
	}
	if ExpectedSequences(0, 5, 100) != 0 || ExpectedSequences(0.5, 0, 100) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestHistoricalSequenceCounts(t *testing.T) {
	// Runs: pool1×3, pool2×5, pool1×2.
	var winners []types.PoolID
	appendRun := func(p types.PoolID, n int) {
		for i := 0; i < n; i++ {
			winners = append(winners, p)
		}
	}
	appendRun(1, 3)
	appendRun(2, 5)
	appendRun(1, 2)
	counts := HistoricalSequenceCounts(winners, []int{2, 3, 5, 6})
	if counts[2] != 3 {
		t.Errorf("runs ≥2 = %d, want 3", counts[2])
	}
	if counts[3] != 2 {
		t.Errorf("runs ≥3 = %d, want 2", counts[3])
	}
	if counts[5] != 1 {
		t.Errorf("runs ≥5 = %d", counts[5])
	}
	if counts[6] != 0 {
		t.Errorf("runs ≥6 = %d", counts[6])
	}
}

func TestSequencesEmptyWinners(t *testing.T) {
	res := SequencesFromWinners(nil, nil, 13.3, 5)
	if res.MainBlocks != 0 || res.LongestRun != 0 || len(res.Rows) != 0 {
		t.Errorf("empty winners produced %+v", res)
	}
}

func TestPoolNameFallback(t *testing.T) {
	winners := []types.PoolID{7}
	res := SequencesFromWinners(winners, []string{"OnlyOne"}, 13.3, 5)
	if res.LongestPool != "pool-7" {
		t.Errorf("fallback name = %q", res.LongestPool)
	}
}

func TestDatasetPoolName(t *testing.T) {
	f := newFixture(t)
	if got := f.d.PoolName(1); got != "Ethermine" {
		t.Errorf("PoolName(1) = %q", got)
	}
	if got := f.d.PoolName(99); got != "pool-99" {
		t.Errorf("PoolName(99) = %q", got)
	}
}
