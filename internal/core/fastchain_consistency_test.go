package core

import (
	"context"
	"math"
	"testing"
	"time"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/types"
)

// TestFastChainMatchesFullSim validates the chain-level fast simulator
// against the full network simulation (DESIGN.md §4): sequence
// statistics depend only on the winner distribution, so the full
// simulator's main-chain winner shares must match the configured pool
// powers that the fast simulator draws from directly.
func TestFastChainMatchesFullSim(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical comparison needs a longer run")
	}
	cfg := tinyConfig()
	cfg.Duration = 2 * time.Hour
	cfg.EnableTxWorkload = false
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.RunContext(context.Background(), RunOptions{}); err != nil {
		t.Fatal(err)
	}

	// Full-sim winner shares.
	counts := make(map[types.PoolID]int)
	total := 0
	for _, b := range campaign.registry.MainChain() {
		if b.Miner == 0 {
			continue
		}
		counts[b.Miner]++
		total++
	}
	if total < 300 {
		t.Fatalf("only %d main blocks", total)
	}
	// Compare each major pool's share against its configured power
	// within binomial noise (3 sigma).
	for i, spec := range cfg.Pools {
		if spec.Power < 0.05 {
			continue
		}
		share := float64(counts[types.PoolID(i+1)]) / float64(total)
		sigma := math.Sqrt(spec.Power * (1 - spec.Power) / float64(total))
		if math.Abs(share-spec.Power) > 3*sigma+0.01 {
			t.Errorf("pool %s full-sim share %.3f deviates from power %.3f (σ=%.3f)",
				spec.Name, share, spec.Power, sigma)
		}
	}

	// Run-length distributions: the full sim's sequences must be
	// statistically consistent with an i.i.d. fast-chain sequence of
	// the same length — compare the count of length-≥2 runs for the
	// top pool against the fast-chain expectation n·p²·(1−p).
	winners := make([]types.PoolID, 0, total)
	for _, b := range campaign.registry.MainChain() {
		if b.Miner != 0 {
			winners = append(winners, b.Miner)
		}
	}
	seq := analysis.SequencesFromWinners(winners, cfg.PoolNames(), 13.3, 1)
	if len(seq.Rows) == 0 {
		t.Fatal("no sequence rows")
	}
	top := seq.Rows[0]
	runs2 := 0
	for length, count := range top.RunCounts {
		if length >= 2 {
			runs2 += count
		}
	}
	p := top.PowerShare
	expected := float64(total) * p * p * (1 - p)
	sigma := math.Sqrt(expected)
	if math.Abs(float64(runs2)-expected) > 4*sigma+2 {
		t.Errorf("top pool length-≥2 runs = %d, i.i.d. expectation %.1f (σ=%.1f)",
			runs2, expected, sigma)
	}
}
