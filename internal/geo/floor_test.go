package geo

import (
	"testing"
	"time"

	"ethmeasure/internal/sim"
)

// TestSampleFloorIsALowerBound: no draw from Sample may undercut
// SampleFloor — the sharded scheduler's lookahead depends on it.
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

// TestMinSampleFloorIsGlobalMin: the model-wide floor equals the
// smallest per-pair floor, and for the default model that is the
// Western-Europe intra-region link scaled by the minimum jitter
// factor.
func TestMinSampleFloorIsGlobalMin(t *testing.T) {
	m := DefaultLatencyModel()
	min := time.Duration(0)
	for _, a := range AllRegions() {
		for _, b := range AllRegions() {
			if f := m.SampleFloor(a, b); min == 0 || f < min {
				min = f
			}
		}
	}
	if got := m.MinSampleFloor(); got != min {
		t.Fatalf("MinSampleFloor = %v, scan gives %v", got, min)
	}
	// Default model: the cheapest link is an 8ms diagonal with jitter
	// 0.35, so the floor is 8ms × (1 − 0.35/2) = 6.6ms.
	if want := time.Duration(float64(8*time.Millisecond) * 0.825); m.MinSampleFloor() != want {
		t.Fatalf("default MinSampleFloor = %v, want %v", m.MinSampleFloor(), want)
	}
}

// TestSampleFloorZeroJitter: a deterministic model's floor is the base
// delay itself.
func TestSampleFloorZeroJitter(t *testing.T) {
	m := UniformLatencyModel(20*time.Millisecond, 0)
	if got := m.SampleFloor(NorthAmerica, Oceania); got != 20*time.Millisecond {
		t.Fatalf("SampleFloor = %v, want 20ms", got)
	}
	if got := m.MinSampleFloor(); got != 20*time.Millisecond {
		t.Fatalf("MinSampleFloor = %v, want 20ms", got)
	}
}
