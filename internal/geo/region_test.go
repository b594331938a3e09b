package geo

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"ethmeasure/internal/sim"
)

func TestRegionStringAndCode(t *testing.T) {
	tests := []struct {
		region   Region
		wantName string
		wantCode string
	}{
		{NorthAmerica, "North America", "NA"},
		{EasternAsia, "Eastern Asia", "EA"},
		{WesternEurope, "Western Europe", "WE"},
		{CentralEurope, "Central Europe", "CE"},
		{EasternEurope, "Eastern Europe", "EE"},
		{SoutheastAsia, "Southeast Asia", "SEA"},
		{SouthAmerica, "South America", "SA"},
		{Oceania, "Oceania", "OC"},
	}
	for _, tt := range tests {
		if got := tt.region.String(); got != tt.wantName {
			t.Errorf("%d.String() = %q, want %q", tt.region, got, tt.wantName)
		}
		if got := tt.region.Code(); got != tt.wantCode {
			t.Errorf("%d.Code() = %q, want %q", tt.region, got, tt.wantCode)
		}
		if !tt.region.Valid() {
			t.Errorf("%s should be valid", tt.wantName)
		}
	}
}

func TestInvalidRegion(t *testing.T) {
	var r Region
	if r.Valid() {
		t.Error("zero region must be invalid")
	}
	if got := r.String(); got != "Region(0)" {
		t.Errorf("String() = %q", got)
	}
	if got := Region(99).Code(); got != "R99" {
		t.Errorf("Code() = %q", got)
	}
}

func TestParseRegion(t *testing.T) {
	for _, r := range AllRegions() {
		byCode, err := ParseRegion(r.Code())
		if err != nil || byCode != r {
			t.Errorf("ParseRegion(%q) = %v, %v", r.Code(), byCode, err)
		}
		byName, err := ParseRegion(r.String())
		if err != nil || byName != r {
			t.Errorf("ParseRegion(%q) = %v, %v", r.String(), byName, err)
		}
	}
	if _, err := ParseRegion("Atlantis"); err == nil {
		t.Error("unknown region must error")
	}
}

func TestAllRegions(t *testing.T) {
	regions := AllRegions()
	if len(regions) != NumRegions {
		t.Fatalf("AllRegions returned %d, want %d", len(regions), NumRegions)
	}
	seen := make(map[Region]bool)
	for _, r := range regions {
		if seen[r] {
			t.Errorf("duplicate region %v", r)
		}
		seen[r] = true
	}
}

func TestNewDistributionErrors(t *testing.T) {
	if _, err := NewDistribution(nil); err == nil {
		t.Error("empty weights must error")
	}
	if _, err := NewDistribution(map[Region]float64{NorthAmerica: -1}); err == nil {
		t.Error("negative weight must error")
	}
	if _, err := NewDistribution(map[Region]float64{NorthAmerica: 0}); err == nil {
		t.Error("all-zero weights must error")
	}
}

func TestMustDistributionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustDistribution did not panic on invalid input")
		}
	}()
	MustDistribution(nil)
}

func TestDistributionSampleRespectsSupport(t *testing.T) {
	d := MustDistribution(map[Region]float64{EasternAsia: 1, Oceania: 3})
	rng := rand.New(rand.NewSource(1))
	counts := make(map[Region]int)
	for i := 0; i < 10000; i++ {
		counts[d.Sample(rng)]++
	}
	if len(counts) != 2 {
		t.Fatalf("sampled regions %v, want exactly {EA, OC}", counts)
	}
	// Oceania should be drawn ~3x as often.
	ratio := float64(counts[Oceania]) / float64(counts[EasternAsia])
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("ratio OC/EA = %.2f, want ≈3", ratio)
	}
}

func TestDistributionWeight(t *testing.T) {
	d := MustDistribution(map[Region]float64{NorthAmerica: 2, WesternEurope: 6})
	if w := d.Weight(NorthAmerica); w < 0.249 || w > 0.251 {
		t.Errorf("Weight(NA) = %f, want 0.25", w)
	}
	if w := d.Weight(WesternEurope); w < 0.749 || w > 0.751 {
		t.Errorf("Weight(WE) = %f, want 0.75", w)
	}
	if w := d.Weight(Oceania); w != 0 {
		t.Errorf("Weight(OC) = %f, want 0", w)
	}
}

func TestDistributionRegionsCopy(t *testing.T) {
	d := MustDistribution(map[Region]float64{NorthAmerica: 1, Oceania: 1})
	rs := d.Regions()
	rs[0] = Region(99)
	if d.Regions()[0] == Region(99) {
		t.Error("Regions() must return a copy")
	}
}

func TestGlobalDistributionsNormalize(t *testing.T) {
	for name, d := range map[string]*Distribution{
		"nodes":   GlobalNodeDistribution(),
		"senders": GlobalSenderDistribution(),
	} {
		total := 0.0
		for _, r := range d.Regions() {
			total += d.Weight(r)
		}
		if total < 0.999 || total > 1.001 {
			t.Errorf("%s weights sum to %f", name, total)
		}
	}
}

func TestDefaultLatencyModelSymmetricAndLocalFaster(t *testing.T) {
	m := DefaultLatencyModel()
	for _, a := range AllRegions() {
		for _, b := range AllRegions() {
			if m.Base(a, b) != m.Base(b, a) {
				t.Errorf("asymmetric base latency %v<->%v", a, b)
			}
			if m.Base(a, b) <= 0 {
				t.Errorf("non-positive base latency %v->%v", a, b)
			}
		}
		// Intra-region must be faster than any inter-region link.
		for _, b := range AllRegions() {
			if a == b {
				continue
			}
			if m.Base(a, a) >= m.Base(a, b) {
				t.Errorf("intra-region %v latency not below %v->%v", a, a, b)
			}
		}
	}
}

func TestLatencySampleBounds(t *testing.T) {
	m := DefaultLatencyModel()
	rng := sim.NewSplitmix(1, "geo-test", 0)
	base := m.Base(NorthAmerica, EasternAsia)
	spikes := 0
	for i := 0; i < 5000; i++ {
		d := m.Sample(rng, NorthAmerica, EasternAsia)
		if d <= 0 {
			t.Fatal("non-positive sampled latency")
		}
		if d > 2*base {
			spikes++
		}
	}
	// Congestion spikes exist but must stay rare.
	if spikes == 0 {
		t.Error("expected occasional latency spikes")
	}
	if spikes > 500 {
		t.Errorf("%d of 5000 samples spiked; tail too heavy", spikes)
	}
}

func TestLatencySampleUnknownPairUsesFallback(t *testing.T) {
	var m LatencyModel // zero model: all bases zero
	rng := sim.NewSplitmix(1, "geo-test", 0)
	if d := m.Sample(rng, NorthAmerica, Oceania); d <= 0 {
		t.Error("zero-base pair should fall back to a positive delay")
	}
}

func TestUniformLatencyModel(t *testing.T) {
	m := UniformLatencyModel(30*time.Millisecond, 0)
	for _, a := range AllRegions() {
		for _, b := range AllRegions() {
			if m.Base(a, b) != 30*time.Millisecond {
				t.Fatalf("Base(%v,%v) = %v", a, b, m.Base(a, b))
			}
		}
	}
}

// Property: every sampled latency is positive and bounded by a generous
// multiple of the base (jitter + max spike).
func TestLatencySampleProperty(t *testing.T) {
	m := DefaultLatencyModel()
	rng := sim.NewSplitmix(42, "geo-test", 0)
	regions := AllRegions()
	f := func(ai, bi uint8) bool {
		a := regions[int(ai)%len(regions)]
		b := regions[int(bi)%len(regions)]
		d := m.Sample(rng, a, b)
		base := m.Base(a, b)
		return d > 0 && d < 8*base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Weight returns the normalized weight of region r (0 if absent).
func (d *Distribution) Weight(r Region) float64 {
	total := d.cum[len(d.cum)-1]
	prev := 0.0
	for i, reg := range d.regions {
		if reg == r {
			return (d.cum[i] - prev) / total
		}
		prev = d.cum[i]
	}
	return 0
}

// Base returns the base one-way delay between two regions.
func (m *LatencyModel) Base(from, to Region) time.Duration {
	return m.base[from][to]
}
