// Package stats provides the statistical primitives the analysis
// pipeline needs: streaming summaries, quantiles and histograms. It
// replaces the pandas/NumPy post-processing the paper used (§II) with
// pure-Go equivalents.
package stats

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned when a statistic is requested from an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Summary holds streaming moments computed with Welford's algorithm,
// plus min/max. The zero value is ready to use.
type Summary struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the sample mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation (0 for an empty summary).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty summary).
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n < 2 {
		return 0
	}
	return s.StdDev() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of the two-sided 95% confidence interval
// of the mean, using the Student-t critical value for n-1 degrees of
// freedom. Cross-seed campaign sweeps report their aggregates as
// mean ± CI95. Zero for fewer than two observations.
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return TCritical95(s.n-1) * s.StdErr()
}

// tTable95 holds two-sided 95% Student-t critical values for 1..30
// degrees of freedom.
var tTable95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% Student-t critical value for
// the given degrees of freedom: exact table values up to df=30, then
// the conventional anchors at 40/60/120. Between anchors the value
// for the next-LOWER tabulated df applies (standard table practice):
// critical values shrink as df grows, so rounding df down keeps the
// reported intervals conservative rather than narrower than nominal.
func TCritical95(df int) float64 {
	switch {
	case df < 1:
		return math.NaN()
	case df <= len(tTable95):
		return tTable95[df-1]
	case df < 40:
		return tTable95[len(tTable95)-1] // 2.042 (df=30)
	case df < 60:
		return 2.021 // df=40
	case df < 120:
		return 2.000 // df=60
	default:
		return 1.980 // df=120; within 1% of the normal limit 1.960
	}
}

// Sample is an accumulating collection of float64 observations that
// supports exact quantiles. It keeps all points; use it for the sample
// sizes this project deals with (≤ tens of millions).
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns a sample with the given capacity hint.
func NewSample(capacity int) *Sample {
	return &Sample{xs: make([]float64, 0, capacity)}
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// N returns the number of observations.
func (s *Sample) N() int { return len(s.xs) }

// Values returns a copy of the observations in insertion order when the
// sample has never been sorted, otherwise in ascending order.
func (s *Sample) Values() []float64 {
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// MarshalJSON emits the observations as a plain array, in their
// current order (insertion order until the first quantile query sorts
// the sample). Two samples built by identical pipelines therefore
// marshal identically bit for bit — the property the equivalence
// suite asserts between a live campaign and its log's re-analysis.
func (s *Sample) MarshalJSON() ([]byte, error) { return json.Marshal(s.xs) }

func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) using linear
// interpolation between closest ranks (the same method as NumPy's
// default "linear" interpolation).
func (s *Sample) Quantile(q float64) (float64, error) {
	if len(s.xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %f out of range [0,1]", q)
	}
	s.ensureSorted()
	if len(s.xs) == 1 {
		return s.xs[0], nil
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo], nil
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac, nil
}

// MustQuantile is Quantile but returns 0 on an empty sample. Convenient
// in report rendering where an empty series prints as zeros.
func (s *Sample) MustQuantile(q float64) float64 {
	v, err := s.Quantile(q)
	if err != nil {
		return 0
	}
	return v
}

// Mean returns the arithmetic mean.
func (s *Sample) Mean() (float64, error) {
	if len(s.xs) == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs)), nil
}

// Histogram is a fixed-width bucketed histogram over [Lo, Hi). Values
// outside the range land in the under/overflow counters.
type Histogram struct {
	Lo, Hi    float64
	Buckets   []int
	Underflow int
	Overflow  int
	total     int
}

// NewHistogram creates a histogram over [lo, hi) with n buckets.
func NewHistogram(lo, hi float64, n int) (*Histogram, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stats: histogram needs at least one bucket, got %d", n)
	}
	if hi <= lo {
		return nil, fmt.Errorf("stats: histogram range [%f,%f) is empty", lo, hi)
	}
	return &Histogram{Lo: lo, Hi: hi, Buckets: make([]int, n)}, nil
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	if x < h.Lo {
		h.Underflow++
		return
	}
	if x >= h.Hi {
		h.Overflow++
		return
	}
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Buckets)))
	if i >= len(h.Buckets) { // guard against float rounding at the edge
		i = len(h.Buckets) - 1
	}
	h.Buckets[i]++
}

// Total returns the number of observations, including out-of-range ones.
func (h *Histogram) Total() int { return h.total }

// BucketBounds returns the [lo, hi) range of bucket i.
func (h *Histogram) BucketBounds(i int) (float64, float64) {
	width := (h.Hi - h.Lo) / float64(len(h.Buckets))
	return h.Lo + float64(i)*width, h.Lo + float64(i+1)*width
}

// Density returns the fraction of all observations in bucket i (the PDF
// value the paper plots in Figure 1).
func (h *Histogram) Density(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Buckets[i]) / float64(h.total)
}
