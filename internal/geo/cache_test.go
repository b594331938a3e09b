package geo

import (
	"sync"
	"testing"
	"time"

	"ethmeasure/internal/sim"
)

func TestSharedModelIdentity(t *testing.T) {
	if SharedDefaultLatencyModel() != SharedDefaultLatencyModel() {
		t.Error("SharedDefaultLatencyModel returned distinct instances")
	}
	a := SharedUniformLatencyModel(10*time.Millisecond, 0)
	b := SharedUniformLatencyModel(10*time.Millisecond, 0)
	if a != b {
		t.Error("equal parameters returned distinct instances")
	}
	c := SharedUniformLatencyModel(20*time.Millisecond, 0)
	d := SharedUniformLatencyModel(10*time.Millisecond, 0.3)
	if c == a || d == a || c == d {
		t.Error("distinct parameters shared an instance")
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
				u := SharedUniformLatencyModel(time.Duration(1+i%4)*time.Millisecond, 0.2)
				from := regions[i%len(regions)]
				to := regions[(i+g)%len(regions)]
				_ = m.Sample(rng, from, to)
				_ = u.Sample(rng, from, to)
			}
		}(g)
	}
	wg.Wait()
}
