package geo

import (
	"sync"
	"testing"

	"ethmeasure/internal/sim"
)

func TestSharedModelIdentity(t *testing.T) {
	if SharedDefaultLatencyModel() != SharedDefaultLatencyModel() {
		t.Error("SharedDefaultLatencyModel returned distinct instances")
	}
}

// TestSharedModelMatchesCold pins the cache to the uncached
// constructors: a shared model must sample exactly what a private one
// does, or sweeps switching to the cache would change results.
func TestSharedModelMatchesCold(t *testing.T) {
	shared := SharedDefaultLatencyModel()
	cold := DefaultLatencyModel()
	rngA := sim.NewSplitmix(42, "geo-test", 0)
	rngB := sim.NewSplitmix(42, "geo-test", 0)
	for _, from := range AllRegions() {
		for _, to := range AllRegions() {
			if shared.Base(from, to) != cold.Base(from, to) {
				t.Fatalf("base(%v,%v) differs", from, to)
			}
			if shared.Sample(rngA, from, to) != cold.Sample(rngB, from, to) {
				t.Fatalf("sample(%v,%v) differs", from, to)
			}
		}
	}
}

// TestSharedModelConcurrent hammers the cache and the returned models
// from many goroutines; it is only meaningful under -race, where it
// proves the read-only sharing contract (each goroutine owns its RNG,
// the model itself is never written after construction).
func TestSharedModelConcurrent(t *testing.T) {
	regions := AllRegions()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := sim.NewSplitmix(int64(g), "geo-test", 0)
			for i := 0; i < 200; i++ {
				m := SharedDefaultLatencyModel()
				from := regions[i%len(regions)]
				to := regions[(i+g)%len(regions)]
				_ = m.Sample(rng, from, to)
			}
		}(g)
	}
	wg.Wait()
}
