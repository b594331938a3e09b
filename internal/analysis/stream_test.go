package analysis

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"ethmeasure/internal/measure"
)

// TestCollectorLiveEqualsReplay feeds the same records once live
// (interleaved, as a bus would deliver them) and once per kind from
// the fixture's record slices, and requires identical finalizer output.
func TestCollectorLiveEqualsReplay(t *testing.T) {
	f := newFixture(t)
	g := f.reg.Genesis()
	b1 := f.block(g, 1, nil)
	b2 := f.block(b1, 2, nil)

	blocks := []measure.BlockRecord{
		{Vantage: "EA", At: 100 * time.Millisecond, Hash: b1.Hash, Number: b1.Number, Kind: "block"},
		{Vantage: "NA", At: 180 * time.Millisecond, Hash: b1.Hash, Number: b1.Number, Kind: "announce"},
		{Vantage: "WE", At: 140 * time.Millisecond, Hash: b1.Hash, Number: b1.Number, Kind: "block"},
		{Vantage: "EA", At: 15 * time.Second, Hash: b2.Hash, Number: b2.Number, Kind: "block"},
		{Vantage: "CE", At: 15100 * time.Millisecond, Hash: b2.Hash, Number: b2.Number, Kind: "block"},
		// Duplicate at a later time must not displace the earliest.
		{Vantage: "EA", At: 200 * time.Millisecond, Hash: b1.Hash, Number: b1.Number, Kind: "fetched"},
		// Unknown vantage records are counted but excluded from arrivals.
		{Vantage: "aux", At: 50 * time.Millisecond, Hash: b1.Hash, Number: b1.Number, Kind: "block"},
	}
	txs := []measure.TxRecord{
		{Vantage: "NA", At: time.Second, Hash: 1001, Sender: 1, Nonce: 0},
		{Vantage: "EA", At: 1100 * time.Millisecond, Hash: 1001, Sender: 1, Nonce: 0},
		{Vantage: "WE", At: 2 * time.Second, Hash: 1002, Sender: 1, Nonce: 1},
	}

	// Live: interleave block and tx records as a campaign would.
	live := NewCollector(f.d, "")
	live.RecordBlock(blocks[0])
	live.RecordTx(txs[0])
	live.RecordBlock(blocks[1])
	live.RecordBlock(blocks[2])
	live.RecordTx(txs[1])
	live.RecordBlock(blocks[3])
	live.RecordTx(txs[2])
	live.RecordBlock(blocks[4])
	live.RecordBlock(blocks[5])
	live.RecordBlock(blocks[6])

	f.blocks, f.txs = blocks, txs
	replay := f.collect("")

	if live.BlockRecords() != 7 || live.TxRecords() != 3 {
		t.Fatalf("record counts = %d/%d", live.BlockRecords(), live.TxRecords())
	}
	if replay.BlockRecords() != live.BlockRecords() || replay.TxRecords() != live.TxRecords() {
		t.Fatal("replay counts differ from live")
	}

	for name, pair := range map[string][2]any{
		"firstobs": {live.FirstObservation(), replay.FirstObservation()},
		"geodelay": {live.GeoDelay(), replay.GeoDelay()},
		"txprop":   {live.TxPropagation(), replay.TxPropagation()},
	} {
		a, _ := json.Marshal(pair[0])
		b, _ := json.Marshal(pair[1])
		if string(a) != string(b) {
			t.Errorf("%s: live %s != replay %s", name, a, b)
		}
	}
	pl, errL := live.Propagation()
	pr, errR := replay.Propagation()
	if errL != nil || errR != nil {
		t.Fatal(errL, errR)
	}
	if !reflect.DeepEqual(pl, pr) {
		t.Errorf("propagation diverged: %+v vs %+v", pl, pr)
	}
}

// TestCollectorArrivalIndex checks the incremental index against known
// answers: earliest observation per vantage, global first observer,
// and the two-vantage threshold.
func TestCollectorArrivalIndex(t *testing.T) {
	f := newFixture(t)
	g := f.reg.Genesis()
	b1 := f.block(g, 1, nil)
	b2 := f.block(b1, 1, nil)

	c := NewCollector(f.d, "")
	c.RecordBlock(measure.BlockRecord{Vantage: "EA", At: 120 * time.Millisecond, Hash: b1.Hash, Kind: "announce"})
	c.RecordBlock(measure.BlockRecord{Vantage: "EA", At: 90 * time.Millisecond, Hash: b1.Hash, Kind: "block"})
	c.RecordBlock(measure.BlockRecord{Vantage: "NA", At: 200 * time.Millisecond, Hash: b1.Hash, Kind: "block"})
	c.RecordBlock(measure.BlockRecord{Vantage: "CE", At: 10 * time.Second, Hash: b2.Hash, Kind: "block"})

	first := c.FirstObservation()
	if first.Blocks != 1 {
		t.Fatalf("blocks with ≥2 vantages = %d, want 1 (b2 seen once)", first.Blocks)
	}
	if first.Counts["EA"] != 1 {
		t.Errorf("EA must win b1 with its 90ms observation: %+v", first.Counts)
	}
	if at, ok := c.blockFirstSeen(b1.Hash); !ok || at != 90*time.Millisecond {
		t.Errorf("blockFirstSeen(b1) = %v, %v", at, ok)
	}
	if at, ok := c.blockFirstSeen(b2.Hash); !ok || at != 10*time.Second {
		t.Errorf("blockFirstSeen(b2) = %v, %v", at, ok)
	}
	if _, ok := c.blockFirstSeen(999); ok {
		t.Error("phantom block in index")
	}

	prop, err := c.Propagation()
	if err != nil {
		t.Fatal(err)
	}
	// One (block, later-vantage) delay: NA trails EA by 110ms on b1.
	if prop.DelaysMs.N() != 1 || prop.MedianMs != 110 {
		t.Errorf("delays N=%d median=%v, want 1/110ms", prop.DelaysMs.N(), prop.MedianMs)
	}
}

// TestCollectorRedundancyCounters checks the Table II counters: only the configured vantage's records count, fetched
// bodies are excluded, and an unseen vantage is an error.
func TestCollectorRedundancyCounters(t *testing.T) {
	f := newFixture(t)
	g := f.reg.Genesis()
	b1 := f.block(g, 1, nil)

	c := NewCollector(f.d, "aux")
	if _, err := c.Redundancy(100); err == nil {
		t.Fatal("redundancy with zero records must fail")
	}
	c.RecordBlock(measure.BlockRecord{Vantage: "aux", At: time.Second, Hash: b1.Hash, Kind: "block"})
	c.RecordBlock(measure.BlockRecord{Vantage: "aux", At: 2 * time.Second, Hash: b1.Hash, Kind: "announce"})
	c.RecordBlock(measure.BlockRecord{Vantage: "aux", At: 3 * time.Second, Hash: b1.Hash, Kind: "announce"})
	c.RecordBlock(measure.BlockRecord{Vantage: "aux", At: 4 * time.Second, Hash: b1.Hash, Kind: "fetched"})
	c.RecordBlock(measure.BlockRecord{Vantage: "EA", At: time.Second, Hash: b1.Hash, Kind: "block"})

	red, err := c.Redundancy(100)
	if err != nil {
		t.Fatal(err)
	}
	if red.Blocks != 1 || red.Announcements.Avg != 2 || red.WholeBlocks.Avg != 1 || red.Combined.Avg != 3 {
		t.Errorf("redundancy rows = %+v", red)
	}
}
