package measure

import (
	"math/rand"
	"testing"
	"time"

	"ethmeasure/internal/p2p"
	"ethmeasure/internal/types"
)

func TestClockModelDistribution(t *testing.T) {
	model := DefaultClockModel()
	rng := rand.New(rand.NewSource(1))
	const n = 100000
	within10, within100, beyond := 0, 0, 0
	for i := 0; i < n; i++ {
		off := model.Sample(rng)
		mag := off
		if mag < 0 {
			mag = -mag
		}
		switch {
		case mag < 10*time.Millisecond:
			within10++
		case mag < 100*time.Millisecond:
			within100++
		default:
			beyond++
		}
		if mag > model.MaxOff {
			t.Fatalf("offset %v beyond max %v", off, model.MaxOff)
		}
	}
	// Paper §II: under 10ms in 90% of cases, under 100ms in 99%.
	if f := float64(within10) / n; f < 0.88 || f > 0.92 {
		t.Errorf("P(<10ms) = %.3f, want ≈0.90", f)
	}
	if f := float64(within10+within100) / n; f < 0.985 || f > 0.995 {
		t.Errorf("P(<100ms) = %.3f, want ≈0.99", f)
	}
	if beyond == 0 {
		t.Error("tail offsets never sampled")
	}
}

func TestClockModelSigns(t *testing.T) {
	model := DefaultClockModel()
	rng := rand.New(rand.NewSource(2))
	pos, neg := 0, 0
	for i := 0; i < 1000; i++ {
		if model.Sample(rng) >= 0 {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		t.Error("offsets must take both signs")
	}
}

func TestVantageOffsetConstantWithinWindow(t *testing.T) {
	v := NewVantage("EA", DefaultClockModel(), 1, NewMemoryRecorder())
	base := v.Offset(OffsetWindow / 2)
	for _, at := range []time.Duration{0, OffsetWindow / 4, OffsetWindow - 1} {
		if v.Offset(at) != base {
			t.Error("offset changed within one window")
		}
	}
	// Across many windows the offset must eventually vary.
	varied := false
	for w := int64(1); w < 100; w++ {
		if v.Offset(time.Duration(w)*OffsetWindow+1) != base {
			varied = true
			break
		}
	}
	if !varied {
		t.Error("offset never resampled across windows")
	}
}

func TestVantageRecordsBlocks(t *testing.T) {
	rec := NewMemoryRecorder()
	v := NewVantage("NA", ClockModel{P10ms: 1, P100ms: 1, MaxOff: time.Millisecond}, 1, rec)
	b := &types.Block{
		Hash: 5, Number: 100, Miner: 2, ParentHash: 4,
		TxHashes: []types.Hash{1, 2}, Size: 700,
	}
	v.ObserveBlock(time.Second, b, types.NodeID(7), p2p.MsgFullBlock)
	if len(rec.Blocks) != 1 {
		t.Fatalf("blocks recorded = %d", len(rec.Blocks))
	}
	r := rec.Blocks[0]
	if r.Vantage != "NA" || r.Hash != 5 || r.Number != 100 || r.Miner != 2 ||
		r.From != 7 || r.Kind != "block" || r.NTxs != 2 || r.Size != 700 {
		t.Errorf("record = %+v", r)
	}
	// Local timestamp = simulation time + offset (first band: <10ms).
	delta := r.At - time.Second
	if delta < -10*time.Millisecond || delta > 10*time.Millisecond {
		t.Errorf("local time offset %v out of model bounds", delta)
	}

	v.ObserveAnnounce(2*time.Second, types.Hash(9), 101, types.NodeID(3))
	if len(rec.Blocks) != 2 || rec.Blocks[1].Kind != "announce" || rec.Blocks[1].Miner != 0 {
		t.Errorf("announce record = %+v", rec.Blocks[1])
	}
}

// TestVantageRecordsTxs: each observed transaction becomes one record.
// The node reports only a transaction's first delivery, so the vantage
// keeps no filter of its own (TestCampaignInvariants checks the whole
// pipeline records each transaction once per vantage).
func TestVantageRecordsTxs(t *testing.T) {
	rec := NewMemoryRecorder()
	v := NewVantage("WE", ClockModel{P10ms: 1, P100ms: 1, MaxOff: time.Millisecond}, 1, rec)
	tx := &types.Transaction{Hash: 11, Sender: 3, Nonce: 4}
	v.ObserveTx(time.Second, tx, 1)
	if len(rec.Txs) != 1 {
		t.Fatalf("tx records = %d, want 1", len(rec.Txs))
	}
	r := rec.Txs[0]
	if r.Vantage != "WE" || r.Hash != 11 || r.Sender != 3 || r.Nonce != 4 || r.From != 1 {
		t.Errorf("tx record = %+v", r)
	}
	other := &types.Transaction{Hash: 12, Sender: 3, Nonce: 5}
	v.ObserveTx(3*time.Second, other, 2)
	if len(rec.Txs) != 2 {
		t.Error("distinct tx not recorded")
	}
}

func TestVantageDeterministicOffsets(t *testing.T) {
	a := NewVantage("X", DefaultClockModel(), 99, NewMemoryRecorder())
	b := NewVantage("X", DefaultClockModel(), 99, NewMemoryRecorder())
	for w := int64(0); w < 20; w++ {
		at := time.Duration(w) * OffsetWindow
		if a.Offset(at) != b.Offset(at) {
			t.Fatal("same-seed vantages diverged")
		}
	}
}

func TestPaperInfrastructure(t *testing.T) {
	specs := PaperInfrastructure()
	if len(specs) != 4 {
		t.Fatalf("got %d machines, want 4", len(specs))
	}
	locations := map[string]bool{}
	for _, s := range specs {
		locations[s.Location] = true
		if s.RAMGB <= 0 || s.BandwidthGbps < 8 {
			t.Errorf("spec %+v below paper Table I", s)
		}
	}
	for _, want := range []string{"NA", "EA", "WE", "CE"} {
		if !locations[want] {
			t.Errorf("missing vantage %s", want)
		}
	}
}
