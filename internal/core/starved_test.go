package core

import (
	"context"
	"testing"
	"time"
)

// TestNoStarvedEmptyBlocks: with the mempool floor ApplyCapacity
// derives, every empty block is a deliberate pool-policy choice (the
// paper's Fig. 6 empty blocks), never a pool whose transaction pool
// ran dry. 21 virtual minutes is the shortest QuickConfig run in which
// a policy-empty block appears, so both halves of the claim are
// exercised.
func TestNoStarvedEmptyBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign-length run; full suite only")
	}
	cfg := QuickConfig()
	cfg.Duration = 21 * time.Minute
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := campaign.RunContext(context.Background(), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	m := campaign.Miner()
	if m.EmptyStarved() != 0 {
		t.Errorf("%d of %d blocks came out empty for lack of executable transactions", m.EmptyStarved(), m.Mined())
	}
	if byPolicy := m.EmptyByPolicy(); byPolicy <= 0 || byPolicy >= m.Mined() {
		t.Errorf("policy-empty blocks = %d of %d mined, want 0 < n < mined", byPolicy, m.Mined())
	}
}
