package stats

import (
	"math/rand"
	"testing"
)

func BenchmarkSampleQuantile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := NewSample(100_000)
	for i := 0; i < 100_000; i++ {
		s.Add(rng.Float64() * 1000)
	}
	s.MustQuantile(0.5) // force the sort outside the loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.MustQuantile(0.99)
	}
}

func BenchmarkSummaryAdd(b *testing.B) {
	var s Summary
	for i := 0; i < b.N; i++ {
		s.Add(float64(i % 1000))
	}
}

func BenchmarkHistogramAdd(b *testing.B) {
	h, err := NewHistogram(0, 500, 50)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		h.Add(float64(i % 600))
	}
}
