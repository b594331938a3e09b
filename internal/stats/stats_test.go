package stats

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSummaryMoments(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Errorf("mean = %f, want 5", s.Mean())
	}
	// Known population variance 4 → sample variance 32/7.
	if got, want := s.Variance(), 32.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("variance = %f, want %f", got, want)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Errorf("min/max = %f/%f", s.Min(), s.Max())
	}
	if got := s.StdDev(); math.Abs(got-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Errorf("stddev = %f", got)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.N() != 0 || s.Mean() != 0 || s.Variance() != 0 {
		t.Error("empty summary should be all zeros")
	}
}

func TestSampleQuantiles(t *testing.T) {
	s := FromSlice([]float64{10, 20, 30, 40})
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 10},
		{1, 40},
		{0.5, 25}, // linear interpolation between 20 and 30
		{0.25, 17.5},
		{1.0 / 3.0, 20},
	}
	for _, tt := range tests {
		got, err := s.Quantile(tt.q)
		if err != nil {
			t.Fatalf("Quantile(%f): %v", tt.q, err)
		}
		if math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Quantile(%f) = %f, want %f", tt.q, got, tt.want)
		}
	}
}

func TestSampleQuantileErrors(t *testing.T) {
	s := NewSample(0)
	if _, err := s.Quantile(0.5); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty quantile err = %v, want ErrEmpty", err)
	}
	s.Add(1)
	if _, err := s.Quantile(-0.1); err == nil {
		t.Error("q<0 must error")
	}
	if _, err := s.Quantile(1.1); err == nil {
		t.Error("q>1 must error")
	}
	if got := s.MustQuantile(0.5); got != 1 {
		t.Errorf("MustQuantile = %f", got)
	}
	if got := NewSample(0).MustQuantile(0.5); got != 0 {
		t.Errorf("MustQuantile on empty = %f, want 0", got)
	}
}

func TestSampleSingleValue(t *testing.T) {
	s := FromSlice([]float64{7})
	for _, q := range []float64{0, 0.3, 0.5, 1} {
		if got, _ := s.Quantile(q); got != 7 {
			t.Errorf("Quantile(%f) = %f", q, got)
		}
	}
}

func TestSampleMinMaxMeanMedian(t *testing.T) {
	s := FromSlice([]float64{5, 1, 9, 3})
	for _, c := range []struct {
		q, want float64
	}{{0, 1}, {1, 9}, {0.5, 4}} {
		if got, _ := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %f, want %f", c.q, got, c.want)
		}
	}
	if got, _ := s.Mean(); got != 4.5 {
		t.Errorf("mean %f", got)
	}
	var empty Sample
	if _, err := empty.Mean(); !errors.Is(err, ErrEmpty) {
		t.Error("empty sample mean must return ErrEmpty")
	}
	if _, err := empty.Quantile(0.5); !errors.Is(err, ErrEmpty) {
		t.Error("empty sample median must return ErrEmpty")
	}
}

func TestSampleValuesIsCopy(t *testing.T) {
	s := FromSlice([]float64{1, 2, 3})
	v := s.Values()
	v[0] = 99
	if got, _ := s.Quantile(0); got != 1 {
		t.Error("Values() must not alias internal storage")
	}
}

func TestHistogramPlacement(t *testing.T) {
	h, err := NewHistogram(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(-1)   // underflow
	h.Add(0)    // bucket 0
	h.Add(9.99) // bucket 0
	h.Add(10)   // bucket 1
	h.Add(99.9) // bucket 9
	h.Add(100)  // overflow
	h.Add(250)  // overflow
	if h.Underflow != 1 || h.Overflow != 2 {
		t.Errorf("under/overflow = %d/%d", h.Underflow, h.Overflow)
	}
	if h.Buckets[0] != 2 || h.Buckets[1] != 1 || h.Buckets[9] != 1 {
		t.Errorf("buckets = %v", h.Buckets)
	}
	if h.Total() != 7 {
		t.Errorf("total = %d", h.Total())
	}
	lo, hi := h.BucketBounds(3)
	if lo != 30 || hi != 40 {
		t.Errorf("BucketBounds(3) = %f,%f", lo, hi)
	}
}

func TestHistogramDensitySumsToOne(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		h.Add(rng.Float64() * 10)
	}
	sum := 0.0
	for i := range h.Buckets {
		sum += h.Density(i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("densities sum to %f", sum)
	}
}

func TestNewHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("zero buckets must error")
	}
	if _, err := NewHistogram(10, 10, 4); err == nil {
		t.Error("empty range must error")
	}
	if _, err := NewHistogram(10, 5, 4); err == nil {
		t.Error("inverted range must error")
	}
}

func TestHistogramEmptyDensity(t *testing.T) {
	h, _ := NewHistogram(0, 10, 2)
	if h.Density(0) != 0 {
		t.Error("empty histogram density should be 0")
	}
}

// Property: quantiles are monotonic in q and bracketed by min/max.
func TestQuantileMonotonicProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		q1 = math.Abs(math.Mod(q1, 1))
		q2 = math.Abs(math.Mod(q2, 1))
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		s := FromSlice(raw)
		v1, err1 := s.Quantile(q1)
		v2, err2 := s.Quantile(q2)
		if err1 != nil || err2 != nil {
			return false
		}
		return v1 <= v2 && v1 >= slices.Min(raw) && v2 <= slices.Max(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestTCritical95(t *testing.T) {
	cases := []struct {
		df   int
		want float64
	}{
		{1, 12.706}, {2, 4.303}, {7, 2.365}, {30, 2.042},
		// Between anchors the next-lower tabulated df applies, so the
		// interval never under-covers.
		{35, 2.042}, {40, 2.021}, {50, 2.021}, {60, 2.000},
		{100, 2.000}, {120, 1.980}, {1000, 1.980},
	}
	for _, c := range cases {
		if got := TCritical95(c.df); got != c.want {
			t.Errorf("TCritical95(%d) = %v, want %v", c.df, got, c.want)
		}
	}
	if !math.IsNaN(TCritical95(0)) {
		t.Error("TCritical95(0) must be NaN")
	}
	// Critical values must decrease monotonically toward the normal
	// limit as degrees of freedom grow.
	prev := math.Inf(1)
	for df := 1; df <= 200; df++ {
		v := TCritical95(df)
		if v > prev {
			t.Fatalf("TCritical95 not monotone at df=%d: %v > %v", df, v, prev)
		}
		prev = v
	}
	if prev < 1.980 {
		t.Errorf("limit %v below the df=120 anchor", prev)
	}
}

func TestSummaryCI95(t *testing.T) {
	var s Summary
	if s.CI95() != 0 {
		t.Error("empty summary must have zero CI")
	}
	s.Add(10)
	if s.CI95() != 0 {
		t.Error("single observation must have zero CI")
	}
	for _, x := range []float64{12, 14, 16} {
		s.Add(x)
	}
	// {10,12,14,16}: sd = sqrt(20/3), se = sd/2, t(3) = 3.182.
	sd := math.Sqrt(20.0 / 3.0)
	if got := s.StdErr(); math.Abs(got-sd/2) > 1e-12 {
		t.Errorf("StdErr = %v, want %v", got, sd/2)
	}
	want := 3.182 * sd / 2
	if got := s.CI95(); math.Abs(got-want) > 1e-9 {
		t.Errorf("CI95 = %v, want %v", got, want)
	}
}

// FromSlice wraps a copy of xs in a Sample.
func FromSlice(xs []float64) *Sample {
	cp := make([]float64, len(xs))
	copy(cp, xs)
	return &Sample{xs: cp}
}
