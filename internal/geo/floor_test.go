package geo

import (
	"testing"
	"time"

	"ethmeasure/internal/sim"
)

// TestSampleFloorIsALowerBound: no draw from Sample may undercut
// SampleFloor, the lower bound it promises, whether the draw comes
// from one stream in sequence or from a fresh keyed stream per draw,
// as a message's delay does (simnet folds the message's key into a
// base stream); a flood skips every message that would lose even at
// this floor.
func TestSampleFloorIsALowerBound(t *testing.T) {
	m := DefaultLatencyModel()
	rng := sim.NewSplitmix(11, "geo-test", 0)
	keys := *sim.NewSplitmix(11, "geo-test-keyed", 0)
	for _, from := range AllRegions() {
		for _, to := range AllRegions() {
			floor := m.SampleFloor(from, to)
			if floor <= 0 {
				t.Fatalf("SampleFloor(%v,%v) = %v", from, to, floor)
			}
			for i := 0; i < 500; i++ {
				if d := m.Sample(rng, from, to); d < floor {
					t.Fatalf("Sample(%v,%v) = %v below floor %v", from, to, d, floor)
				}
				keyed := keys.Fold(uint64(from)<<8 | uint64(to)).Fold(uint64(i))
				if d := m.Sample(&keyed, from, to); d < floor {
					t.Fatalf("keyed Sample(%v,%v) = %v below floor %v", from, to, d, floor)
				}
			}
		}
	}
}

// TestSampleFloorZeroJitter: a deterministic model's floor is the base
// delay itself.
func TestSampleFloorZeroJitter(t *testing.T) {
	m := UniformLatencyModel(20*time.Millisecond, 0)
	if got := m.SampleFloor(NorthAmerica, Oceania); got != 20*time.Millisecond {
		t.Fatalf("SampleFloor = %v, want 20ms", got)
	}
}
