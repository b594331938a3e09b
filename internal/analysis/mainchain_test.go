package analysis

import (
	"encoding/json"
	"testing"
	"time"

	"ethmeasure/internal/types"
)

func TestChainIndexSideChildren(t *testing.T) {
	f := newFixture(t)
	g := f.reg.Genesis()
	a := f.block(g, 1, nil)
	b := f.block(g, 2, nil) // same height, created later: a side block
	b2 := f.block(b, 2, nil)
	a2 := f.block(a, 1, nil)
	a3 := f.block(a2, 1, nil) // a-branch outweighs b-branch

	idx := f.d.index()
	if got := idx.sideChildren[g.Hash]; len(got) != 1 || got[0] != b {
		t.Errorf("side children of genesis = %v", got)
	}
	if got := idx.sideChildren[b.Hash]; len(got) != 1 || got[0] != b2 {
		t.Errorf("side children of b = %v", got)
	}
	if got := idx.sideChildren[a.Hash]; len(got) != 0 {
		t.Errorf("main block a has side children %v", got)
	}
	if idx.at(g.Number+1) != a || idx.at(g.Number+3) != a3 || idx.at(g.Number+4) != nil || idx.at(g.Number-1) != nil {
		t.Error("height lookup off the main chain")
	}
	if !idx.onMain(a2) || idx.onMain(b) || idx.onMain(b2) {
		t.Error("main-chain membership")
	}
}

// chainResults renders every chain analyzer and collector finalizer
// over d as JSON, for comparing two datasets field by field.
func chainResults(t *testing.T, d *Dataset, c *Collector) map[string]string {
	t.Helper()
	forks := Forks(d)
	results := map[string]any{
		"forks":       forks,
		"oneMiner":    OneMinerForks(d, forks),
		"empty":       EmptyBlocks(d, 10),
		"sequences":   Sequences(d, 6),
		"rewards":     Rewards(d),
		"finality":    Finality(d, 14),
		"throughput":  Throughput(d),
		"interBlock":  InterBlock(d),
		"withholding": c.Withholding(),
		"commit":      c.Commit(),
		"ordering":    c.Ordering(),
		"feeMarket":   c.FeeMarket(func(types.Hash) (uint64, bool) { return 20, true }),
	}
	out := make(map[string]string, len(results))
	for name, r := range results {
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatalf("marshal %s: %v", name, err)
		}
		out[name] = string(data)
	}
	return out
}

// An analyzer called again after the chain grew, here by a reorg onto
// another branch, must see the grown chain: its result equals the same
// call on a fresh Dataset over the same registry and records.
func TestAnalyzersSeeChainGrowth(t *testing.T) {
	f := newFixture(t)
	c := NewCollector(f.d, "")
	fed := 0
	feed := func() {
		for _, r := range f.blocks[fed:] {
			c.RecordBlock(r)
		}
		fed = len(f.blocks)
	}
	at := time.Duration(0)
	mine := func(parent *types.Block, miner types.PoolID, txs []types.Hash, uncles ...types.Hash) *types.Block {
		b := f.block(parent, miner, txs, uncles...)
		at += 10 * time.Second
		f.observe("EA", at, b, "block")
		return b
	}

	tx1, tx2 := types.Hash(0xB1), types.Hash(0xB2)
	f.observeTx("EA", time.Second, tx1, 1, 0)
	f.observeTx("NA", 2*time.Second, tx2, 1, 1)
	for _, r := range f.txs {
		c.RecordTx(r)
	}

	g := f.reg.Genesis()
	side := mine(g, 2, nil)
	head := mine(g, 1, []types.Hash{tx1})
	head = mine(head, 1, nil, side.Hash)
	for i := 0; i < 14; i++ {
		head = mine(head, 1, nil)
	}
	feed()
	before := chainResults(t, f.d, c)

	// Pool 2's branch from its side block overtakes pool 1's chain.
	branch := side
	for i := 0; i < 20; i++ {
		var txs []types.Hash
		if i == 1 {
			txs = []types.Hash{tx2, tx1}
		}
		branch = mine(branch, 2, txs)
	}
	feed()
	got := chainResults(t, f.d, c)

	fresh := *f.d
	fresh.idx = nil
	want := chainResults(t, &fresh, f.replay(NewCollector(&fresh, "")))
	changed := false
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s after growth:\n got %s\nwant %s", name, got[name], w)
		}
		changed = changed || before[name] != w
	}
	if !changed {
		t.Fatal("growth changed no result: the test exercises nothing")
	}
}
