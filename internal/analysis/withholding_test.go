package analysis

import (
	"testing"
	"time"

	"ethmeasure/internal/types"
)

func TestWithholdingDetectsBursts(t *testing.T) {
	f := newFixture(t)
	parent := f.reg.Genesis()

	// Pool 1: a 3-block sequence released as a burst (arrivals 100ms
	// apart). Pool 2: a 2-block honest sequence (arrivals 13s apart).
	for i := 0; i < 3; i++ {
		b := f.block(parent, 1, nil)
		parent = b
		f.observe("EA", time.Minute+time.Duration(i)*100*time.Millisecond, b, "block")
	}
	for i := 0; i < 2; i++ {
		b := f.block(parent, 2, nil)
		parent = b
		f.observe("EA", 5*time.Minute+time.Duration(i)*13*time.Second, b, "block")
	}

	res := f.collect("").Withholding()
	rows := make(map[string]WithholdingRow)
	for _, r := range res.Rows {
		rows[r.Pool] = r
	}
	attacker := rows["Ethermine"]
	if attacker.Sequences != 1 || attacker.BurstSequences != 1 {
		t.Errorf("attacker row = %+v", attacker)
	}
	if attacker.MeanIntraGapSec > 1 {
		t.Errorf("attacker intra-gap = %.2fs", attacker.MeanIntraGapSec)
	}
	honest := rows["Sparkpool"]
	if honest.Sequences != 1 || honest.BurstSequences != 0 {
		t.Errorf("honest row = %+v", honest)
	}
	if honest.MeanIntraGapSec < 10 {
		t.Errorf("honest intra-gap = %.2fs", honest.MeanIntraGapSec)
	}
}

func TestWithholdingSuspectThreshold(t *testing.T) {
	f := newFixture(t)
	parent := f.reg.Genesis()
	// Two burst sequences from pool 1 → suspect (≥2 sequences, >50%
	// bursts).
	for s := 0; s < 2; s++ {
		for i := 0; i < 2; i++ {
			b := f.block(parent, 1, nil)
			parent = b
			f.observe("EA", time.Duration(s)*time.Minute+time.Duration(i)*time.Second, b, "block")
		}
		// A pool-2 separator block so the sequences are distinct.
		b := f.block(parent, 2, nil)
		parent = b
		f.observe("EA", time.Duration(s)*time.Minute+30*time.Second, b, "block")
	}
	res := f.collect("").Withholding()
	if len(res.Suspects) != 1 || res.Suspects[0] != "Ethermine" {
		t.Errorf("suspects = %v", res.Suspects)
	}
}

func TestWithholdingNoSequences(t *testing.T) {
	f := newFixture(t)
	parent := f.reg.Genesis()
	for i := 0; i < 4; i++ {
		b := f.block(parent, types.PoolID(i%2+1), nil)
		parent = b
		f.observe("EA", time.Duration(i)*13*time.Second, b, "block")
	}
	res := f.collect("").Withholding()
	if len(res.Rows) != 0 || len(res.Suspects) != 0 {
		t.Errorf("alternating miners produced rows: %+v", res)
	}
}
