package geo

import (
	"math/rand"
	"testing"
	"time"

	"ethmeasure/internal/sim"
)

// TestParseRegionEdgeCases pins the exact-match contract: empty
// strings, stray whitespace, wrong case and code/name hybrids must all
// be rejected rather than fuzzily matched — scenario specs depend on
// parse failures surfacing instead of silently resolving to the wrong
// region.
func TestParseRegionEdgeCases(t *testing.T) {
	for _, bad := range []string{
		"",
		"  ",
		"ea",  // codes are upper-case
		"EA ", // exact match means no trimming here
		" EA",
		"eastern asia",   // names are title-case
		"EasternAsia",    // no space-stripped aliases
		"Eastern  Asia",  // double space
		"NorthAmerica/X", // garbage suffix
		"R3",             // the fallback Code() form never parses back
		"Region(2)",      // the fallback String() form never parses back
	} {
		if r, err := ParseRegion(bad); err == nil {
			t.Errorf("ParseRegion(%q) = %v, want error", bad, r)
		}
	}
}

// TestParseRegionRoundTripsEveryRegion: both textual forms of every
// region resolve back to it, and the zero/out-of-range regions have no
// parseable form.
func TestParseRegionRoundTripsEveryRegion(t *testing.T) {
	for _, r := range AllRegions() {
		for _, form := range []string{r.Code(), r.String()} {
			got, err := ParseRegion(form)
			if err != nil || got != r {
				t.Errorf("ParseRegion(%q) = %v, %v; want %v", form, got, err, r)
			}
		}
	}
	for _, invalid := range []Region{0, NumRegions + 1, -1} {
		if invalid.Valid() {
			t.Errorf("Region(%d) claims validity", invalid)
		}
	}
}

// TestSelfLatency: the diagonal of the latency matrix is positive and
// strictly the fastest link out of every region, and sampling a
// self-pair honours it with and without jitter.
func TestSelfLatency(t *testing.T) {
	m := DefaultLatencyModel()
	rng := sim.NewSplitmix(7, "geo-test", 0)
	for _, r := range AllRegions() {
		self := m.Base(r, r)
		if self <= 0 {
			t.Fatalf("Base(%v,%v) = %v", r, r, self)
		}
		for _, other := range AllRegions() {
			if other == r {
				continue
			}
			if m.Base(r, other) <= self {
				t.Errorf("intra-region %v (%v) not faster than %v->%v (%v)",
					r, self, r, other, m.Base(r, other))
			}
		}
		for i := 0; i < 200; i++ {
			if d := m.Sample(rng, r, r); d <= 0 {
				t.Fatalf("non-positive self-latency sample for %v", r)
			}
		}
	}
	// Zero jitter samples the base exactly.
	exact := UniformLatencyModel(25*time.Millisecond, 0)
	for _, r := range AllRegions() {
		if d := exact.Sample(rng, r, r); d != 25*time.Millisecond {
			t.Fatalf("deterministic self-sample = %v", d)
		}
	}
}

// TestLatencyMatrixSymmetry: the base matrix is symmetric in every
// model the package builds, including after finalize's fallback fill,
// so A→B and B→A simulations are statistically exchangeable.
func TestLatencyMatrixSymmetry(t *testing.T) {
	models := map[string]*LatencyModel{
		"default": DefaultLatencyModel(),
		"uniform": UniformLatencyModel(40*time.Millisecond, 0.2),
	}
	for name, m := range models {
		for _, a := range AllRegions() {
			for _, b := range AllRegions() {
				if m.Base(a, b) != m.Base(b, a) {
					t.Errorf("%s: Base(%v,%v)=%v != Base(%v,%v)=%v",
						name, a, b, m.Base(a, b), b, a, m.Base(b, a))
				}
			}
		}
	}
	// The zero-constructed model's implicit fallback is symmetric too:
	// every pair (including out-of-matrix use through Sample) gets the
	// same constant.
	var zero LatencyModel
	rng := sim.NewSplitmix(3, "geo-test", 0)
	for _, a := range AllRegions() {
		for _, b := range AllRegions() {
			ab := zero.Sample(rng, a, b)
			ba := zero.Sample(rng, b, a)
			if ab != ba || ab != fallbackBase {
				t.Fatalf("zero-model fallback asymmetric: %v vs %v", ab, ba)
			}
		}
	}
}

// TestDistributionSingleRegion: a one-region distribution always
// samples that region and reports weight 1.
func TestDistributionSingleRegion(t *testing.T) {
	d := MustDistribution(map[Region]float64{SouthAmerica: 0.123})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if got := d.Sample(rng); got != SouthAmerica {
			t.Fatalf("sampled %v", got)
		}
	}
	if w := d.Weight(SouthAmerica); w != 1 {
		t.Fatalf("weight = %v", w)
	}
}
