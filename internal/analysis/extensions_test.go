package analysis

import (
	"math"
	"testing"
	"time"

	"ethmeasure/internal/consensus"
	"ethmeasure/internal/types"
)

func TestRewardsAccounting(t *testing.T) {
	f := newFixture(t)
	g := f.reg.Genesis()
	// Pool 1: main blocks at heights 1..3; its sibling at height 1 is
	// referenced as uncle by the height-2 block (one-miner fork
	// profit). Pool 2: a side block at height 2, referenced at height
	// 3. One orphan from pool 3 that earns nothing.
	m1 := f.block(g, 1, nil)
	sib := f.block(g, 1, nil)
	orphan := f.block(g, 3, nil)
	_ = orphan
	m2 := f.block(m1, 1, nil, sib.Hash)
	u2 := f.block(m1, 2, nil)
	m3 := f.block(m2, 1, nil, u2.Hash)
	_ = m3

	res := Rewards(f.d)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byPool := make(map[string]PoolRewardRow)
	for _, r := range res.Rows {
		byPool[r.Pool] = r
	}

	p1 := byPool["Ethermine"]
	if p1.MainBlocks != 3 {
		t.Errorf("pool1 main blocks = %d", p1.MainBlocks)
	}
	// 3 block rewards + 2 nephew rewards + own sibling uncle at depth 1.
	wantP1 := 3*consensus.EthereumBlockReward + 2*consensus.EthereumNephewReward + 1.75
	if math.Abs(p1.TotalETH-wantP1) > 1e-9 {
		t.Errorf("pool1 total = %f, want %f", p1.TotalETH, wantP1)
	}
	if math.Abs(p1.SiblingUncleETH-1.75) > 1e-9 {
		t.Errorf("pool1 sibling profit = %f, want 1.75", p1.SiblingUncleETH)
	}

	p2 := byPool["Sparkpool"]
	if math.Abs(p2.UncleRewardETH-1.75) > 1e-9 || p2.SiblingUncleETH != 0 {
		t.Errorf("pool2 uncle reward = %f (sibling %f)", p2.UncleRewardETH, p2.SiblingUncleETH)
	}

	p3 := byPool["F2pool2"]
	if p3.TotalETH != 0 || p3.OrphanBlocks != 1 {
		t.Errorf("orphaned pool earned %f with %d orphans", p3.TotalETH, p3.OrphanBlocks)
	}

	if res.WastedBlocks != 1 {
		t.Errorf("wasted = %d", res.WastedBlocks)
	}
	if math.Abs(res.SiblingShare-0.5) > 1e-9 { // 1.75 of 3.50 uncle ETH
		t.Errorf("sibling share = %f", res.SiblingShare)
	}
	// Rows sorted by total descending.
	if res.Rows[0].Pool != "Ethermine" {
		t.Errorf("top earner = %s", res.Rows[0].Pool)
	}
}

func TestRewardsEmptyChain(t *testing.T) {
	f := newFixture(t)
	res := Rewards(f.d)
	if res.TotalETH != 0 || len(res.Rows) != 0 {
		t.Errorf("empty chain rewards: %+v", res)
	}
}

func TestFinalityFromWinners(t *testing.T) {
	// Winners: A,A,A,B,A — runs A×3, B×1, A×1.
	winners := []types.PoolID{1, 1, 1, 2, 1}
	res := FinalityFromWinners(winners, []string{"A", "B"}, 3)
	if res.TopPool != "A" || math.Abs(res.TopShare-0.8) > 1e-9 {
		t.Fatalf("top = %s %.2f", res.TopPool, res.TopShare)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.Rows[0].SinglePoolWindows != 5 || res.Rows[0].SinglePoolShare != 1 {
		t.Errorf("depth-1 row = %+v", res.Rows[0])
	}
	// Depth 2: windows (A,A),(A,A),(A,B),(B,A) → 2 single-pool.
	if res.Rows[1].SinglePoolWindows != 2 {
		t.Errorf("depth-2 singles = %d, want 2", res.Rows[1].SinglePoolWindows)
	}
	// Depth 3: only the first window (A,A,A).
	if res.Rows[2].SinglePoolWindows != 1 {
		t.Errorf("depth-3 singles = %d, want 1", res.Rows[2].SinglePoolWindows)
	}
	if math.Abs(res.Rows[2].TopPoolTheory-0.64) > 1e-12 {
		t.Errorf("theory = %f", res.Rows[2].TopPoolTheory)
	}
}

func TestFinalityNakamotoCatchup(t *testing.T) {
	res := FinalityFromWinners([]types.PoolID{1, 2}, []string{"A", "B"}, 2)
	// Top share 0.5 → attacker at parity: catch-up certain.
	if res.Rows[1].NakamotoCatchup != 1 {
		t.Errorf("parity catch-up = %f", res.Rows[1].NakamotoCatchup)
	}
	// q = 0.25 behind 2 blocks: (0.25/0.75)^2 = 1/9.
	if got := nakamotoCatchup(0.25, 2); math.Abs(got-1.0/9.0) > 1e-12 {
		t.Errorf("catchup(0.25,2) = %f", got)
	}
	if nakamotoCatchup(0, 3) != 0 {
		t.Error("zero-power attacker must never catch up")
	}
}

func TestFinalityTwelveBlockViolations(t *testing.T) {
	winners := make([]types.PoolID, 30)
	for i := range winners {
		winners[i] = 2
	}
	winners[0] = 1 // a 29-run of pool 2
	res := FinalityFromWinners(winners, []string{"A", "B"}, 12)
	// 29-run contains 29-12+1 = 18 twelve-block single-pool windows.
	if res.TwelveBlockViolations != 18 {
		t.Errorf("12-block violations = %d, want 18", res.TwelveBlockViolations)
	}
}

func TestFinalityEmpty(t *testing.T) {
	res := FinalityFromWinners(nil, nil, 12)
	if res.MainBlocks != 0 || len(res.Rows) != 0 {
		t.Errorf("empty finality: %+v", res)
	}
}

func TestThroughputWasteAccounting(t *testing.T) {
	f := newFixture(t)
	f.d.Duration = 100 * time.Second
	g := f.reg.Genesis()
	txA, txB := types.Hash(0xE1), types.Hash(0xE2)
	m1 := f.block(g, 1, []types.Hash{txA, txB})
	side := f.block(g, 2, []types.Hash{txA}) // duplicates txA
	_ = side
	m2 := f.block(m1, 1, nil) // empty main block
	m3 := f.block(m2, 1, []types.Hash{0xE3, 0xE4})
	_ = m3

	res := Throughput(f.d)
	if res.TotalBlocks != 4 || res.MainBlocks != 3 || res.SideBlocks != 1 {
		t.Fatalf("blocks = %+v", res)
	}
	if res.SidePowerShare != 0.25 {
		t.Errorf("side power share = %f", res.SidePowerShare)
	}
	if res.CommittedTxs != 4 {
		t.Errorf("committed = %d", res.CommittedTxs)
	}
	if res.CommittedTxPS != 0.04 {
		t.Errorf("tx/s = %f", res.CommittedTxPS)
	}
	if res.DuplicateTxInclusions != 1 {
		t.Errorf("duplicates = %d", res.DuplicateTxInclusions)
	}
	// Non-empty main blocks carry 2 txs on average → 1 empty block
	// wasted ~2 txs; utilization 4/(2*3) = 2/3.
	if math.Abs(res.EmptyBlockCapacityLoss-2) > 1e-9 {
		t.Errorf("capacity loss = %f", res.EmptyBlockCapacityLoss)
	}
	if math.Abs(res.EffectiveUtilization-2.0/3.0) > 1e-9 {
		t.Errorf("utilization = %f", res.EffectiveUtilization)
	}
}

func TestInterBlockStats(t *testing.T) {
	f := newFixture(t)
	parent := f.reg.Genesis()
	// Gaps of exactly 10s between consecutive mining times.
	for i := 1; i <= 5; i++ {
		b := &types.Block{
			Hash:       f.issuer.Next(),
			Number:     parent.Number + 1,
			ParentHash: parent.Hash,
			Miner:      1,
			MinedAt:    time.Duration(i) * 10 * time.Second,
		}
		if err := f.reg.Add(b); err != nil {
			t.Fatal(err)
		}
		parent = b
	}
	res := InterBlock(f.d)
	if res.Blocks != 4 {
		t.Fatalf("gaps = %d", res.Blocks)
	}
	if res.MeanSec != 10 || res.MedianSec != 10 {
		t.Errorf("mean/median = %f/%f", res.MeanSec, res.MedianSec)
	}
	if res.CoeffVar != 0 {
		t.Errorf("constant gaps should have CV 0, got %f", res.CoeffVar)
	}
}

func TestInterBlockEmpty(t *testing.T) {
	f := newFixture(t)
	res := InterBlock(f.d)
	if res.Blocks != 0 || res.MeanSec != 0 {
		t.Errorf("empty chain interblock: %+v", res)
	}
}

func TestFeeMarketBands(t *testing.T) {
	f := newFixture(t)
	// Two txs: premium (price 50) included fast, reservoir (price 2)
	// included late.
	fast, slow := types.Hash(0xF1), types.Hash(0xF2)
	b1 := f.block(f.reg.Genesis(), 1, []types.Hash{fast})
	f.observe("EA", 10*time.Second, b1, "block")
	b2 := f.block(b1, 1, []types.Hash{slow})
	f.observe("EA", 100*time.Second, b2, "block")
	f.observeTx("EA", 1*time.Second, fast, 1, 0)
	f.observeTx("EA", 2*time.Second, slow, 2, 0)

	prices := map[types.Hash]uint64{fast: 50, slow: 2}
	res := FeeMarket(f.d, func(h types.Hash) (uint64, bool) {
		p, ok := prices[h]
		return p, ok
	})
	byLabel := make(map[string]FeeBandRow)
	for _, band := range res.Bands {
		byLabel[band.Label] = band
	}
	premium := byLabel["premium (40+)"]
	if premium.Txs != 1 || premium.InclusionP50 != 9 {
		t.Errorf("premium band = %+v", premium)
	}
	reservoir := byLabel["reservoir (1-3)"]
	if reservoir.Txs != 1 || reservoir.InclusionP50 != 98 {
		t.Errorf("reservoir band = %+v", reservoir)
	}
	if !res.MedianTrendDecreasing {
		t.Error("fee trend should be decreasing")
	}
}

func TestFeeMarketUnknownPrices(t *testing.T) {
	f := newFixture(t)
	res := FeeMarket(f.d, func(types.Hash) (uint64, bool) { return 0, false })
	for _, band := range res.Bands {
		if band.Txs != 0 {
			t.Errorf("band %s populated without price data", band.Label)
		}
	}
}

func TestGeoDelayPerVantage(t *testing.T) {
	f := newFixture(t)
	parent := f.reg.Genesis()
	// 3 blocks: EA first, NA +100ms, WE +40ms, CE +60ms each time.
	for i := 0; i < 3; i++ {
		b := f.block(parent, 1, nil)
		parent = b
		base := time.Duration(i+1) * time.Minute
		f.observe("EA", base, b, "block")
		f.observe("NA", base+100*time.Millisecond, b, "block")
		f.observe("WE", base+40*time.Millisecond, b, "block")
		f.observe("CE", base+60*time.Millisecond, b, "block")
	}
	res := GeoDelay(f.d)
	if res.Blocks != 3 {
		t.Fatalf("blocks = %d", res.Blocks)
	}
	if res.MedianMs["NA"] != 100 || res.MedianMs["WE"] != 40 || res.MedianMs["CE"] != 60 {
		t.Errorf("medians = %v", res.MedianMs)
	}
	if res.Samples["EA"] != 0 {
		t.Errorf("first observer should have no lag samples, got %d", res.Samples["EA"])
	}
}
