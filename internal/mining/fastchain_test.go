package mining

import (
	"math"
	"testing"

	"ethmeasure/internal/geo"
	"ethmeasure/internal/types"
)

func TestNewFastChainErrors(t *testing.T) {
	if _, err := NewFastChain(nil, 1); err == nil {
		t.Error("empty specs must error")
	}
	if _, err := NewFastChain([]PoolSpec{{Name: "x", Power: -1}}, 1); err == nil {
		t.Error("negative power must error")
	}
	if _, err := NewFastChain([]PoolSpec{{Name: "x", Power: 0}}, 1); err == nil {
		t.Error("zero total power must error")
	}
}

func TestFastChainWinnerShares(t *testing.T) {
	specs := []PoolSpec{
		{Name: "Big", Power: 0.6},
		{Name: "Small", Power: 0.4},
	}
	fc, err := NewFastChain(specs, 7)
	if err != nil {
		t.Fatal(err)
	}
	const n = 200000
	winners := fc.Winners(n)
	counts := make(map[types.PoolID]int)
	for _, w := range winners {
		counts[w]++
	}
	big := float64(counts[1]) / n
	if math.Abs(big-0.6) > 0.01 {
		t.Errorf("big pool share %.3f, want ≈0.60", big)
	}
	names := fc.PoolNames()
	if len(names) != 2 || names[0] != "Big" {
		t.Errorf("names = %v", names)
	}
}

func TestFastChainDeterministic(t *testing.T) {
	specs := PaperPools()
	a, _ := NewFastChain(specs, 42)
	b, _ := NewFastChain(specs, 42)
	wa, wb := a.Winners(5000), b.Winners(5000)
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("same-seed fast chains diverged at %d", i)
		}
	}
	c, _ := NewFastChain(specs, 43)
	wc := c.Winners(5000)
	same := true
	for i := range wa {
		if wa[i] != wc[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical sequences")
	}
}

func TestHistoricalWinnersEpochsAndRemap(t *testing.T) {
	epochs := []HistoricalEpoch{
		{Blocks: 1000, Pools: []PoolSpec{
			{Name: "A", Power: 0.5, Gateways: []geo.Region{geo.NorthAmerica}},
			{Name: "B", Power: 0.5, Gateways: []geo.Region{geo.NorthAmerica}},
		}},
		{Blocks: 500, Pools: []PoolSpec{
			{Name: "B", Power: 0.7, Gateways: []geo.Region{geo.NorthAmerica}},
			{Name: "C", Power: 0.3, Gateways: []geo.Region{geo.NorthAmerica}},
		}},
	}
	winners, names, err := HistoricalWinners(epochs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(winners) != 1500 {
		t.Fatalf("winners = %d, want 1500", len(winners))
	}
	if len(names) != 3 {
		t.Fatalf("names = %v, want A,B,C", names)
	}
	// Pool B must share one ID across both epochs.
	var bID types.PoolID
	for i, n := range names {
		if n == "B" {
			bID = types.PoolID(i + 1)
		}
	}
	early, late := 0, 0
	for i, w := range winners {
		if w == bID {
			if i < 1000 {
				early++
			} else {
				late++
			}
		}
	}
	if early == 0 || late == 0 {
		t.Error("pool B should win blocks in both epochs under one ID")
	}
}

func TestHistoricalWinnersBadEpoch(t *testing.T) {
	if _, _, err := HistoricalWinners([]HistoricalEpoch{{Blocks: 10}}, 1); err == nil {
		t.Error("epoch without pools must error")
	}
}

func TestDefaultHistoryShape(t *testing.T) {
	epochs := DefaultHistory()
	total := 0
	for _, e := range epochs {
		if len(e.Pools) == 0 {
			t.Fatal("epoch without pools")
		}
		total += e.Blocks
	}
	// The paper's whole-chain scan covered ~7.68M blocks.
	if total < 7_000_000 || total > 8_500_000 {
		t.Errorf("history covers %d blocks, want ≈7.68M", total)
	}
	// Concentration must decline over time (early top-share highest).
	first := epochs[0].Pools[0].Power
	last := epochs[len(epochs)-1].Pools[0].Power
	if first <= last {
		t.Errorf("top-pool power should decline: %f → %f", first, last)
	}
}

func TestPaperPoolsCalibration(t *testing.T) {
	pools := PaperPools()
	if len(pools) != 16 {
		t.Fatalf("got %d pools, want 15 named + remainder", len(pools))
	}
	total := TotalPower(pools)
	if math.Abs(total-1) > 0.005 {
		t.Errorf("total power %f, want ≈1", total)
	}
	byName := make(map[string]PoolSpec, len(pools))
	for _, p := range pools {
		if err := p.Validate(); err != nil {
			t.Errorf("spec %s invalid: %v", p.Name, err)
		}
		byName[p.Name] = p
	}
	// Figure 3's measured power shares.
	if byName["Ethermine"].Power != 0.2532 {
		t.Errorf("Ethermine power = %f", byName["Ethermine"].Power)
	}
	if byName["Sparkpool"].Power != 0.2288 {
		t.Errorf("Sparkpool power = %f", byName["Sparkpool"].Power)
	}
	// §III-C3: Nanopool and Miningpoolhub1 mined no empty blocks;
	// Zhizhu mined >25% empty.
	if byName["Nanopool"].EmptyRate != 0 || byName["Miningpoolhub1"].EmptyRate != 0 {
		t.Error("pools the paper found empty-free must have zero empty rate")
	}
	if byName["Zhizhu"].EmptyRate < 0.25 {
		t.Errorf("Zhizhu empty rate = %f, paper says >25%%", byName["Zhizhu"].EmptyRate)
	}
	// Weighted empty rate ≈ the paper's 1.45% of main blocks.
	weighted := 0.0
	for _, p := range pools {
		weighted += p.Power * p.EmptyRate
	}
	if weighted < 0.012 || weighted > 0.018 {
		t.Errorf("aggregate empty rate %.4f, want ≈0.0145", weighted)
	}
	// Weighted sibling rate ≈ 1,750 pairs / 201,086 blocks ≈ 0.87%.
	sibling := 0.0
	for _, p := range pools {
		sibling += p.Power * p.SiblingRate
	}
	if sibling < 0.006 || sibling > 0.013 {
		t.Errorf("aggregate sibling rate %.4f, want ≈0.0087", sibling)
	}
}

func TestUniformGatewayPools(t *testing.T) {
	pools := UniformGatewayPools()
	for _, p := range pools {
		if len(p.Gateways) != geo.NumRegions {
			t.Errorf("pool %s gateways = %d regions, want all %d", p.Name, len(p.Gateways), geo.NumRegions)
		}
	}
}

func TestPoolSpecValidate(t *testing.T) {
	valid := PoolSpec{Name: "p", Power: 0.5, Gateways: []geo.Region{geo.NorthAmerica}}
	if err := valid.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	tests := []struct {
		name string
		spec PoolSpec
	}{
		{"no name", PoolSpec{Power: 0.5, Gateways: valid.Gateways}},
		{"power > 1", PoolSpec{Name: "p", Power: 1.5, Gateways: valid.Gateways}},
		{"bad empty rate", PoolSpec{Name: "p", Power: 0.5, EmptyRate: 2, Gateways: valid.Gateways}},
		{"bad sibling rate", PoolSpec{Name: "p", Power: 0.5, SiblingRate: -1, Gateways: valid.Gateways}},
		{"no gateways", PoolSpec{Name: "p", Power: 0.5}},
	}
	for _, tt := range tests {
		if err := tt.spec.Validate(); err == nil {
			t.Errorf("%s: expected error", tt.name)
		}
	}
}

// TotalPower sums the power shares of the given specs.
func TotalPower(specs []PoolSpec) float64 {
	total := 0.0
	for i := range specs {
		total += specs[i].Power
	}
	return total
}
