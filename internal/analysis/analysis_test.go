package analysis

import (
	"testing"
	"time"

	"ethmeasure/internal/chain"
	"ethmeasure/internal/measure"
	"ethmeasure/internal/types"
)

// fixture builds synthetic datasets with known answers: a chain on
// d and the records observe and observeTx logged, which the tests
// stream into a Collector.
type fixture struct {
	t      *testing.T
	reg    *chain.Registry
	issuer *types.HashIssuer
	d      *Dataset
	blocks []measure.BlockRecord
	txs    []measure.TxRecord
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	issuer := types.NewHashIssuer(7)
	reg := chain.NewRegistry(1000, issuer)
	return &fixture{
		t:      t,
		reg:    reg,
		issuer: issuer,
		d: &Dataset{
			Vantages:   []string{"NA", "EA", "WE", "CE"},
			Chain:      reg,
			PoolNames:  []string{"Ethermine", "Sparkpool", "F2pool2"},
			InterBlock: 13300 * time.Millisecond,
			Duration:   time.Hour,
		},
	}
}

func (f *fixture) block(parent *types.Block, miner types.PoolID, txs []types.Hash, uncles ...types.Hash) *types.Block {
	f.t.Helper()
	b := &types.Block{
		Hash:       f.issuer.Next(),
		Number:     parent.Number + 1,
		ParentHash: parent.Hash,
		Miner:      miner,
		TxHashes:   txs,
		Uncles:     uncles,
	}
	if err := f.reg.Add(b); err != nil {
		f.t.Fatal(err)
	}
	return b
}

// observe records a block reception at a vantage.
func (f *fixture) observe(vantage string, at time.Duration, b *types.Block, kind string) {
	f.blocks = append(f.blocks, measure.BlockRecord{
		Vantage: vantage, At: at, Hash: b.Hash, Number: b.Number,
		Miner: b.Miner, Parent: b.ParentHash, Kind: kind,
		NTxs: len(b.TxHashes),
	})
}

// observeTx records a transaction first-observation at a vantage.
func (f *fixture) observeTx(vantage string, at time.Duration, hash types.Hash, sender types.AccountID, nonce uint64) {
	f.txs = append(f.txs, measure.TxRecord{
		Vantage: vantage, At: at, Hash: hash, Sender: sender, Nonce: nonce,
	})
}

// collect streams the fixture's records into a new collector over f.d.
func (f *fixture) collect(redundancyVantage string) *Collector {
	return f.replay(NewCollector(f.d, redundancyVantage))
}

// replay feeds the fixture's records into c, blocks then transactions,
// the way a log reader streams them, and returns c.
func (f *fixture) replay(c *Collector) *Collector {
	for _, r := range f.blocks {
		c.RecordBlock(r)
	}
	for _, r := range f.txs {
		c.RecordTx(r)
	}
	return c
}

func TestBlockPropagationKnownDelays(t *testing.T) {
	f := newFixture(t)
	b1 := f.block(f.reg.Genesis(), 1, nil)
	b2 := f.block(b1, 1, nil)

	// b1: first at EA t=1000ms, NA +50ms, WE +100ms, CE +150ms.
	f.observe("EA", 1000*time.Millisecond, b1, "block")
	f.observe("NA", 1050*time.Millisecond, b1, "block")
	f.observe("WE", 1100*time.Millisecond, b1, "announce")
	f.observe("CE", 1150*time.Millisecond, b1, "block")
	// b2: only one vantage → excluded.
	f.observe("EA", 2000*time.Millisecond, b2, "block")

	res, err := f.collect("").Propagation()
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 1 {
		t.Fatalf("blocks = %d, want 1 (single-vantage excluded)", res.Blocks)
	}
	if res.DelaysMs.N() != 3 {
		t.Fatalf("samples = %d", res.DelaysMs.N())
	}
	if res.MedianMs != 100 {
		t.Errorf("median = %f, want 100", res.MedianMs)
	}
	if res.MeanMs != 100 {
		t.Errorf("mean = %f, want 100", res.MeanMs)
	}
	if res.InterBlockRatio < 132 || res.InterBlockRatio > 134 {
		t.Errorf("inter-block ratio = %f, want ≈133", res.InterBlockRatio)
	}
	// Duplicate later receptions must not affect first-arrival times.
	f.observe("NA", 3000*time.Millisecond, b1, "announce")
	res2, err := f.collect("").Propagation()
	if err != nil {
		t.Fatal(err)
	}
	if res2.MedianMs != 100 {
		t.Error("later duplicate changed first-arrival delay")
	}
}

func TestBlockPropagationClampsClockSkew(t *testing.T) {
	f := newFixture(t)
	b := f.block(f.reg.Genesis(), 1, nil)
	// NTP offsets can make a later vantage appear earlier; deltas are
	// clamped at zero rather than going negative.
	f.observe("EA", 1000*time.Millisecond, b, "block")
	f.observe("NA", 990*time.Millisecond, b, "block")
	res, err := f.collect("").Propagation()
	if err != nil {
		t.Fatal(err)
	}
	if min, _ := res.DelaysMs.Quantile(0); min < 0 {
		t.Error("negative delay leaked through")
	}
}

func TestRedundancyCounts(t *testing.T) {
	f := newFixture(t)
	f.d.Vantages = []string{"NA"}
	b1 := f.block(f.reg.Genesis(), 1, nil)
	b2 := f.block(b1, 1, nil)
	aux := "WE-default"

	// b1 at the default node: 2 full + 3 announces (+1 fetched ignored).
	f.observe(aux, 1*time.Second, b1, "block")
	f.observe(aux, 2*time.Second, b1, "block")
	f.observe(aux, 3*time.Second, b1, "announce")
	f.observe(aux, 4*time.Second, b1, "announce")
	f.observe(aux, 5*time.Second, b1, "announce")
	f.observe(aux, 6*time.Second, b1, "fetched")
	// b2: 4 full, 1 announce.
	for i := 0; i < 4; i++ {
		f.observe(aux, time.Duration(10+i)*time.Second, b2, "block")
	}
	f.observe(aux, 15*time.Second, b2, "announce")
	// Noise from a primary vantage must be ignored.
	f.observe("NA", time.Second, b1, "block")

	res, err := f.collect(aux).Redundancy(150)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocks != 2 {
		t.Fatalf("blocks = %d", res.Blocks)
	}
	if res.Announcements.Avg != 2 { // (3+1)/2
		t.Errorf("announce avg = %f", res.Announcements.Avg)
	}
	if res.WholeBlocks.Avg != 3 { // (2+4)/2
		t.Errorf("full avg = %f", res.WholeBlocks.Avg)
	}
	if res.Combined.Avg != 5 {
		t.Errorf("combined avg = %f (fetched must be excluded)", res.Combined.Avg)
	}
	if res.OptimalLn < 5 || res.OptimalLn > 5.1 {
		t.Errorf("ln(150) = %f", res.OptimalLn)
	}
}

func TestRedundancyUnknownVantage(t *testing.T) {
	f := newFixture(t)
	if _, err := f.collect("nope").Redundancy(10); err == nil {
		t.Fatal("unknown vantage must error")
	}
}

func TestFirstObservationSharesAndTies(t *testing.T) {
	f := newFixture(t)
	g := f.reg.Genesis()
	parent := g
	// 4 blocks first seen at EA, 1 at NA; one EA win is within 10ms of
	// the runner-up (uncertain).
	for i := 0; i < 5; i++ {
		b := f.block(parent, 1, nil)
		parent = b
		base := time.Duration(i+1) * time.Minute
		if i < 4 {
			f.observe("EA", base, b, "block")
			margin := 50 * time.Millisecond
			if i == 0 {
				margin = 5 * time.Millisecond
			}
			f.observe("NA", base+margin, b, "block")
		} else {
			f.observe("NA", base, b, "block")
			f.observe("EA", base+30*time.Millisecond, b, "block")
		}
	}
	res := f.collect("").FirstObservation()
	if res.Blocks != 5 {
		t.Fatalf("blocks = %d", res.Blocks)
	}
	if res.Shares["EA"] != 0.8 || res.Shares["NA"] != 0.2 {
		t.Errorf("shares = %v", res.Shares)
	}
	if res.Counts["EA"] != 4 {
		t.Errorf("counts = %v", res.Counts)
	}
	if res.UncertainShare != 0.2 {
		t.Errorf("uncertain = %f, want 0.2", res.UncertainShare)
	}
}

func TestFirstObservationIgnoresAuxiliaryVantages(t *testing.T) {
	f := newFixture(t)
	b := f.block(f.reg.Genesis(), 1, nil)
	f.observe("WE-default", time.Second, b, "block") // auxiliary: earliest but excluded
	f.observe("EA", 2*time.Second, b, "block")
	f.observe("NA", 3*time.Second, b, "block")
	res := f.collect("").FirstObservation()
	if res.Shares["EA"] != 1 {
		t.Errorf("EA share = %f; auxiliary vantage leaked into analysis", res.Shares["EA"])
	}
}

func TestPoolGeographyAttribution(t *testing.T) {
	f := newFixture(t)
	g := f.reg.Genesis()
	// Pool 1 blocks seen first at EA; pool 2 blocks first at WE.
	parent := g
	for i := 0; i < 3; i++ {
		b := f.block(parent, 1, nil)
		parent = b
		at := time.Duration(i+1) * time.Minute
		f.observe("EA", at, b, "block")
		f.observe("WE", at+time.Second, b, "block")
	}
	for i := 0; i < 2; i++ {
		b := f.block(parent, 2, nil)
		parent = b
		at := time.Duration(i+10) * time.Minute
		f.observe("WE", at, b, "block")
		f.observe("EA", at+time.Second, b, "block")
	}
	res := f.collect("").PoolGeography(10)
	if res.Blocks != 5 {
		t.Fatalf("blocks = %d", res.Blocks)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	top := res.Rows[0]
	if top.Pool != "Ethermine" || top.Blocks != 3 {
		t.Errorf("top row = %+v", top)
	}
	if top.Shares["EA"] != 1 {
		t.Errorf("Ethermine EA share = %f", top.Shares["EA"])
	}
	if top.PowerShare < 0.59 || top.PowerShare > 0.61 {
		t.Errorf("power share = %f", top.PowerShare)
	}
	if res.Rows[1].Shares["WE"] != 1 {
		t.Errorf("Sparkpool WE share = %f", res.Rows[1].Shares["WE"])
	}
}

func TestPoolGeographyAggregatesTail(t *testing.T) {
	f := newFixture(t)
	parent := f.reg.Genesis()
	for pool := types.PoolID(1); pool <= 3; pool++ {
		b := f.block(parent, pool, nil)
		parent = b
		at := time.Duration(pool) * time.Minute
		f.observe("EA", at, b, "block")
		f.observe("NA", at+time.Second, b, "block")
	}
	res := f.collect("").PoolGeography(2)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d (2 named + aggregate)", len(res.Rows))
	}
	last := res.Rows[len(res.Rows)-1]
	if last.Pool != "Remaining miners" || last.Blocks != 1 {
		t.Errorf("aggregate row = %+v", last)
	}
}
