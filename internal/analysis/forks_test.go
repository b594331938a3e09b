package analysis

import (
	"testing"
	"time"

	"ethmeasure/internal/types"
)

func TestEmptyBlocksAnalysis(t *testing.T) {
	f := newFixture(t)
	parent := f.reg.Genesis()
	// Pool 1: 3 blocks, 1 empty. Pool 2: 2 blocks, 2 empty.
	mk := func(miner types.PoolID, empty bool) {
		var txs []types.Hash
		if !empty {
			txs = []types.Hash{f.issuer.Next()}
		}
		parent = f.block(parent, miner, txs)
	}
	mk(1, false)
	mk(1, true)
	mk(1, false)
	mk(2, true)
	mk(2, true)

	res := EmptyBlocks(f.d, 10)
	if res.MainBlocks != 5 || res.EmptyBlocks != 3 {
		t.Fatalf("main=%d empty=%d", res.MainBlocks, res.EmptyBlocks)
	}
	if res.EmptyShare != 0.6 {
		t.Errorf("share = %f", res.EmptyShare)
	}
	// Rows ordered by empty count descending: Sparkpool (2) first.
	if res.Rows[0].Pool != "Sparkpool" || res.Rows[0].EmptyBlocks != 2 {
		t.Errorf("top row = %+v", res.Rows[0])
	}
	if res.Rows[0].EmptyRate != 1.0 {
		t.Errorf("Sparkpool rate = %f", res.Rows[0].EmptyRate)
	}
	if res.Rows[1].Pool != "Ethermine" || res.Rows[1].EmptyRate < 0.33 || res.Rows[1].EmptyRate > 0.34 {
		t.Errorf("Ethermine row = %+v", res.Rows[1])
	}
}

func TestEmptyBlocksOnlyCountsMainChain(t *testing.T) {
	f := newFixture(t)
	g := f.reg.Genesis()
	main1 := f.block(g, 1, []types.Hash{f.issuer.Next()})
	f.block(g, 2, nil) // empty fork block: not on main chain
	f.block(main1, 1, []types.Hash{f.issuer.Next()})
	res := EmptyBlocks(f.d, 10)
	if res.EmptyBlocks != 0 {
		t.Errorf("fork block counted: %d", res.EmptyBlocks)
	}
}

// buildForkStructure creates: a recognized length-1 fork, an
// unrecognized length-2 fork, and a long main chain.
func buildForkStructure(f *fixture) {
	g := f.reg.Genesis()
	a1 := f.block(g, 1, nil)
	u1 := f.block(g, 2, nil)           // length-1 fork
	s1 := f.block(g, 3, nil)           // root of length-2 fork
	f.block(s1, 3, nil)                // second block of the side chain
	a2 := f.block(a1, 1, nil, u1.Hash) // references u1 → recognized
	head := a2
	for i := 0; i < 6; i++ {
		head = f.block(head, 1, nil)
	}
}

func TestForksClassification(t *testing.T) {
	f := newFixture(t)
	buildForkStructure(f)
	res := Forks(f.d)

	if res.TotalForks != 2 {
		t.Fatalf("forks = %d, want 2", res.TotalForks)
	}
	byLen := make(map[int]ForkLengthRow)
	for _, row := range res.Rows {
		byLen[row.Length] = row
	}
	if r := byLen[1]; r.Total != 1 || r.Recognized != 1 || r.Unrecognized != 0 {
		t.Errorf("length-1 row = %+v", r)
	}
	if r := byLen[2]; r.Total != 1 || r.Recognized != 0 || r.Unrecognized != 1 {
		t.Errorf("length-2 row = %+v", r)
	}
	// Block shares: 11 non-genesis blocks, 8 main, 1 recognized uncle,
	// 2 unrecognized side blocks.
	if res.TotalBlocks != 11 || res.MainBlocks != 8 {
		t.Errorf("blocks=%d main=%d", res.TotalBlocks, res.MainBlocks)
	}
	if res.RecognizedUncles != 1 || res.UnrecognizedSide != 2 {
		t.Errorf("recognized=%d unrecognized=%d", res.RecognizedUncles, res.UnrecognizedSide)
	}
	wantMain := 8.0 / 11.0
	if res.MainShare < wantMain-0.001 || res.MainShare > wantMain+0.001 {
		t.Errorf("main share = %f", res.MainShare)
	}
}

func TestForksNoForks(t *testing.T) {
	f := newFixture(t)
	parent := f.reg.Genesis()
	for i := 0; i < 5; i++ {
		parent = f.block(parent, 1, nil)
	}
	res := Forks(f.d)
	if res.TotalForks != 0 || len(res.Rows) != 0 {
		t.Errorf("unexpected forks: %+v", res)
	}
	if res.MainShare != 1 {
		t.Errorf("main share = %f", res.MainShare)
	}
}

func TestOneMinerForksAnalysis(t *testing.T) {
	f := newFixture(t)
	g := f.reg.Genesis()
	txA := types.Hash(0xAA)

	// Pool 1 mines two versions of height 1001 with the SAME tx set
	// (one-miner pair, same version), the main one extends.
	m1 := f.block(g, 1, []types.Hash{txA})
	sib := f.block(g, 1, []types.Hash{txA})
	// Pool 2 mines a triple at height 1002 with distinct tx sets.
	m2 := f.block(m1, 2, []types.Hash{0xB1})
	s2a := f.block(m1, 2, []types.Hash{0xB2})
	f.block(m1, 2, []types.Hash{0xB3})
	// Next main block references the pool-1 sibling as uncle.
	m3 := f.block(m2, 1, nil, sib.Hash)
	_ = s2a
	head := m3
	for i := 0; i < 3; i++ {
		head = f.block(head, 1, nil)
	}

	forks := Forks(f.d)
	res := OneMinerForks(f.d, forks)
	if res.Events != 2 {
		t.Fatalf("events = %d, want 2 (one pair + one triple)", res.Events)
	}
	bySize := make(map[int]int)
	for _, row := range res.Tuples {
		bySize[row.Size] = row.Count
	}
	if bySize[2] != 1 || bySize[3] != 1 {
		t.Errorf("tuples = %v", res.Tuples)
	}
	if res.SameTxShare != 0.5 {
		t.Errorf("same-tx share = %f, want 0.5", res.SameTxShare)
	}
	// Side members: sib + 2 triple siblings = 3; only sib recognized.
	if res.SiblingBlocks != 3 {
		t.Errorf("sibling blocks = %d", res.SiblingBlocks)
	}
	if res.RecognizedShare < 0.33 || res.RecognizedShare > 0.34 {
		t.Errorf("recognized share = %f", res.RecognizedShare)
	}
	if res.TopPoolEvents["Ethermine"] != 1 || res.TopPoolEvents["Sparkpool"] != 1 {
		t.Errorf("per-pool events = %v", res.TopPoolEvents)
	}
	if res.ShareOfAllForks <= 0 || res.ShareOfAllForks > 1 {
		t.Errorf("share of forks = %f", res.ShareOfAllForks)
	}
}

func TestOneMinerForksNone(t *testing.T) {
	f := newFixture(t)
	parent := f.reg.Genesis()
	for i := 0; i < 4; i++ {
		parent = f.block(parent, types.PoolID(i%2+1), nil)
	}
	res := OneMinerForks(f.d, Forks(f.d))
	if res.Events != 0 || res.SameTxShare != 0 {
		t.Errorf("unexpected events: %+v", res)
	}
}

func TestSameTxSetsFingerprint(t *testing.T) {
	a := &types.Block{TxHashes: []types.Hash{1, 2, 3}}
	b := &types.Block{TxHashes: []types.Hash{3, 2, 1}} // order-insensitive
	c := &types.Block{TxHashes: []types.Hash{1, 2}}
	d := &types.Block{TxHashes: []types.Hash{1, 2, 4}}
	if !sameTxSets([]*types.Block{a, b}) {
		t.Error("permuted sets should match")
	}
	if sameTxSets([]*types.Block{a, c}) {
		t.Error("prefix set must not match")
	}
	if sameTxSets([]*types.Block{a, d}) {
		t.Error("different sets must not match")
	}
	if !sameTxSets([]*types.Block{a}) {
		t.Error("single block trivially matches")
	}
}

func TestTxPropagationGeoNeutral(t *testing.T) {
	f := newFixture(t)
	// 8 txs, first observations spread evenly across vantages with
	// tiny deltas.
	for i := 0; i < 8; i++ {
		h := types.Hash(0x100 + i)
		first := f.d.Vantages[i%4]
		base := time.Duration(i+1) * time.Second
		f.observeTx(first, base, h, types.AccountID(i+1), 0)
		for _, v := range f.d.Vantages {
			if v != first {
				f.observeTx(v, base+5*time.Millisecond, h, types.AccountID(i+1), 0)
			}
		}
	}
	res := f.collect("").TxPropagation()
	if res.Txs != 8 {
		t.Fatalf("txs = %d", res.Txs)
	}
	for _, v := range f.d.Vantages {
		if res.FirstShares[v] != 0.25 {
			t.Errorf("share[%s] = %f", v, res.FirstShares[v])
		}
		if res.MedianDelayMs[v] != 5 {
			t.Errorf("median delay[%s] = %f", v, res.MedianDelayMs[v])
		}
	}
	if res.FirstShareSpread != 0 {
		t.Errorf("spread = %f", res.FirstShareSpread)
	}
}

func TestTxPropagationEmpty(t *testing.T) {
	f := newFixture(t)
	res := f.collect("").TxPropagation()
	if res.Txs != 0 {
		t.Errorf("txs = %d", res.Txs)
	}
}
