package geo

import (
	"testing"
	"time"

	"ethmeasure/internal/sim"
)

// TestSampleFloorIsALowerBound: no draw from Sample may undercut
// SampleFloor, the lower bound it promises.
func TestSampleFloorIsALowerBound(t *testing.T) {
	m := DefaultLatencyModel()
	rng := sim.NewSplitmix(11, "geo-test", 0)
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
