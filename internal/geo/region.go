// Package geo models the geographic layout of the simulated Ethereum
// network: regions, inter-region latencies with jitter, and weighted
// sampling of node placement.
//
// The paper's measurement campaign used four vantage points — North
// America, Eastern Asia, Western Europe and Central Europe — and found
// that geographic position strongly influences block reception times
// (paper §III-B). Latency values here are calibrated to public
// inter-region RTT data for backbone-connected hosts.
package geo

import (
	"fmt"
	"math/rand"
	"time"

	"ethmeasure/internal/sim"
)

// Region identifies a coarse geographic area in which nodes, miners and
// mining-pool gateways are placed.
type Region int

// Regions. The first four are the paper's measurement vantage points.
const (
	NorthAmerica Region = iota + 1
	EasternAsia
	WesternEurope
	CentralEurope
	EasternEurope
	SoutheastAsia
	SouthAmerica
	Oceania
)

// NumRegions is the number of distinct regions.
const NumRegions = 8

// VantageRegions lists the four regions where the paper deployed
// measurement nodes, in the order used throughout the paper's figures.
var VantageRegions = []Region{NorthAmerica, EasternAsia, WesternEurope, CentralEurope}

var regionNames = map[Region]string{
	NorthAmerica:  "North America",
	EasternAsia:   "Eastern Asia",
	WesternEurope: "Western Europe",
	CentralEurope: "Central Europe",
	EasternEurope: "Eastern Europe",
	SoutheastAsia: "Southeast Asia",
	SouthAmerica:  "South America",
	Oceania:       "Oceania",
}

var regionCodes = map[Region]string{
	NorthAmerica:  "NA",
	EasternAsia:   "EA",
	WesternEurope: "WE",
	CentralEurope: "CE",
	EasternEurope: "EE",
	SoutheastAsia: "SEA",
	SouthAmerica:  "SA",
	Oceania:       "OC",
}

// String returns the human-readable region name (e.g. "Eastern Asia").
func (r Region) String() string {
	if name, ok := regionNames[r]; ok {
		return name
	}
	return fmt.Sprintf("Region(%d)", int(r))
}

// Code returns the short region code used in logs (e.g. "EA").
func (r Region) Code() string {
	if code, ok := regionCodes[r]; ok {
		return code
	}
	return fmt.Sprintf("R%d", int(r))
}

// Valid reports whether r is one of the defined regions.
func (r Region) Valid() bool {
	_, ok := regionNames[r]
	return ok
}

// ParseRegion resolves a region from its code ("EA") or full name
// ("Eastern Asia"). Matching is exact.
func ParseRegion(s string) (Region, error) {
	for r, code := range regionCodes {
		if code == s {
			return r, nil
		}
	}
	for r, name := range regionNames {
		if name == s {
			return r, nil
		}
	}
	return 0, fmt.Errorf("geo: unknown region %q", s)
}

// AllRegions returns every defined region in declaration order.
func AllRegions() []Region {
	regions := make([]Region, 0, NumRegions)
	for r := NorthAmerica; r <= Oceania; r++ {
		regions = append(regions, r)
	}
	return regions
}

// Distribution is a weighted distribution over regions, used to place
// nodes, transaction senders, and pool gateways.
type Distribution struct {
	regions []Region
	cum     []float64 // cumulative weights, last element == total
}

// NewDistribution builds a distribution from region→weight pairs.
// Weights must be non-negative and sum to a positive value.
func NewDistribution(weights map[Region]float64) (*Distribution, error) {
	d := &Distribution{}
	total := 0.0
	for _, r := range AllRegions() {
		w, ok := weights[r]
		if !ok {
			continue
		}
		if w < 0 {
			return nil, fmt.Errorf("geo: negative weight %f for region %s", w, r)
		}
		if w == 0 {
			continue
		}
		total += w
		d.regions = append(d.regions, r)
		d.cum = append(d.cum, total)
	}
	if total <= 0 {
		return nil, fmt.Errorf("geo: distribution has no positive weights")
	}
	return d, nil
}

// MustDistribution is NewDistribution but panics on error. Intended for
// package-level presets built from literals.
func MustDistribution(weights map[Region]float64) *Distribution {
	d, err := NewDistribution(weights)
	if err != nil {
		panic(err)
	}
	return d
}

// Sample draws a region according to the distribution weights.
func (d *Distribution) Sample(rng *rand.Rand) Region {
	total := d.cum[len(d.cum)-1]
	x := rng.Float64() * total
	for i, c := range d.cum {
		if x < c {
			return d.regions[i]
		}
	}
	return d.regions[len(d.regions)-1]
}

// Regions returns the regions with positive weight, in declaration order.
func (d *Distribution) Regions() []Region {
	out := make([]Region, len(d.regions))
	copy(out, d.regions)
	return out
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

// GlobalNodeDistribution approximates the geographic spread of public
// Ethereum nodes in spring 2019 (ethernodes.org places most peers in
// North America and Europe, with a significant Asian share).
func GlobalNodeDistribution() *Distribution {
	return MustDistribution(map[Region]float64{
		NorthAmerica:  0.34,
		EasternAsia:   0.17,
		WesternEurope: 0.18,
		CentralEurope: 0.14,
		EasternEurope: 0.06,
		SoutheastAsia: 0.05,
		SouthAmerica:  0.03,
		Oceania:       0.03,
	})
}

// GlobalSenderDistribution approximates where transactions originate.
// The paper observes transactions are created in a geographically
// dispersed fashion (§III-A1), so this is close to the node spread.
func GlobalSenderDistribution() *Distribution {
	return MustDistribution(map[Region]float64{
		NorthAmerica:  0.30,
		EasternAsia:   0.22,
		WesternEurope: 0.17,
		CentralEurope: 0.12,
		EasternEurope: 0.07,
		SoutheastAsia: 0.06,
		SouthAmerica:  0.03,
		Oceania:       0.03,
	})
}

// LatencyModel provides pairwise one-way network delays between regions
// with multiplicative jitter. It is safe for concurrent reads after
// construction.
//
// Sampling is on the per-message hot path of every campaign, so the
// model precomputes two flat matrices at construction: the defaulted
// base delay (unknown pairs fall back to 50 ms) and its float64 image
// used by the jitter arithmetic. A sample is then two array loads plus
// the jitter draw — no map lookups and no per-sample branching on
// missing pairs.
type LatencyModel struct {
	base   [NumRegions + 1][NumRegions + 1]time.Duration
	jitter float64 // max fractional jitter, e.g. 0.2 → ±20%

	// Precomputed lookup tables (see finalize).
	baseD        [NumRegions + 1][NumRegions + 1]time.Duration // defaulted base
	baseF        [NumRegions + 1][NumRegions + 1]float64       // float64(defaulted base)
	oneMinusHalf float64                                       // 1 - jitter/2
}

// fallbackBase is the delay assumed for region pairs the model does not
// cover (historically the zero-entry default in Sample).
const fallbackBase = 50 * time.Millisecond

// finalize fills the flattened lookup tables from base and jitter. It
// must be called after the base matrix is fully populated and before
// the first Sample.
func (m *LatencyModel) finalize() *LatencyModel {
	for a := range m.base {
		for b := range m.base[a] {
			d := m.base[a][b]
			if d == 0 {
				d = fallbackBase
			}
			m.baseD[a][b] = d
			m.baseF[a][b] = float64(d)
		}
	}
	m.oneMinusHalf = 1 - m.jitter/2
	return m
}

// DefaultLatencyModel returns a latency model calibrated to typical
// backbone one-way delays between the modeled regions (roughly half of
// the public inter-region RTTs).
func DefaultLatencyModel() *LatencyModel {
	m := &LatencyModel{jitter: 0.35}
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }

	// One-way base delays. Intra-region delays on the diagonal.
	set := func(a, b Region, d time.Duration) {
		m.base[a][b] = d
		m.base[b][a] = d
	}
	set(NorthAmerica, NorthAmerica, ms(18))
	set(EasternAsia, EasternAsia, ms(16))
	set(WesternEurope, WesternEurope, ms(8))
	set(CentralEurope, CentralEurope, ms(8))
	set(EasternEurope, EasternEurope, ms(12))
	set(SoutheastAsia, SoutheastAsia, ms(14))
	set(SouthAmerica, SouthAmerica, ms(20))
	set(Oceania, Oceania, ms(15))

	set(NorthAmerica, EasternAsia, ms(85))
	set(NorthAmerica, WesternEurope, ms(45))
	set(NorthAmerica, CentralEurope, ms(52))
	set(NorthAmerica, EasternEurope, ms(62))
	set(NorthAmerica, SoutheastAsia, ms(105))
	set(NorthAmerica, SouthAmerica, ms(75))
	set(NorthAmerica, Oceania, ms(90))

	set(EasternAsia, WesternEurope, ms(110))
	set(EasternAsia, CentralEurope, ms(115))
	set(EasternAsia, EasternEurope, ms(100))
	set(EasternAsia, SoutheastAsia, ms(38))
	set(EasternAsia, SouthAmerica, ms(150))
	set(EasternAsia, Oceania, ms(65))

	set(WesternEurope, CentralEurope, ms(12))
	set(WesternEurope, EasternEurope, ms(25))
	set(WesternEurope, SoutheastAsia, ms(95))
	set(WesternEurope, SouthAmerica, ms(100))
	set(WesternEurope, Oceania, ms(140))

	set(CentralEurope, EasternEurope, ms(15))
	set(CentralEurope, SoutheastAsia, ms(100))
	set(CentralEurope, SouthAmerica, ms(110))
	set(CentralEurope, Oceania, ms(145))

	set(EasternEurope, SoutheastAsia, ms(95))
	set(EasternEurope, SouthAmerica, ms(120))
	set(EasternEurope, Oceania, ms(150))

	set(SoutheastAsia, SouthAmerica, ms(170))
	set(SoutheastAsia, Oceania, ms(55))

	set(SouthAmerica, Oceania, ms(160))
	return m.finalize()
}

// UniformLatencyModel returns a model where every pair of regions has
// the same base delay. Used by ablation experiments to remove geography.
func UniformLatencyModel(base time.Duration, jitter float64) *LatencyModel {
	m := &LatencyModel{jitter: jitter}
	for _, a := range AllRegions() {
		for _, b := range AllRegions() {
			m.base[a][b] = base
		}
	}
	return m.finalize()
}

// Base returns the base one-way delay between two regions.
func (m *LatencyModel) Base(from, to Region) time.Duration {
	return m.base[from][to]
}

// SampleFloor returns the smallest delay Sample can return for the
// pair: the base delay scaled by the minimum jitter factor, a lower
// bound on every delivery between the two regions.
func (m *LatencyModel) SampleFloor(from, to Region) time.Duration {
	d := m.baseD[from][to]
	if d == 0 { // zero-constructed model without finalize
		d = fallbackBase
	}
	if m.jitter == 0 {
		return d
	}
	return time.Duration(float64(d) * m.oneMinusHalf)
}

// Sample draws a one-way delay between two regions, applying jitter.
// Jitter is asymmetric: delays can stretch more than they can shrink,
// matching the long-tailed nature of Internet latency. A model with
// zero jitter samples the base delay exactly (deterministic transport,
// used by ablations and tests).
func (m *LatencyModel) Sample(rng *sim.Splitmix, from, to Region) time.Duration {
	if m.jitter == 0 {
		d := m.baseD[from][to]
		if d == 0 { // zero-constructed model without finalize
			d = fallbackBase
		}
		return d
	}
	// factor in [1-j/2, 1+j], with occasional heavier tail. The
	// multiply chain keeps the historical evaluation order so sampled
	// values stay bit-identical across engine versions.
	f := m.oneMinusHalf + rng.Float64()*1.5*m.jitter
	if rng.Float64() < 0.06 { // occasional congestion spike
		f += rng.Float64() * 4
	}
	return time.Duration(m.baseF[from][to] * f)
}
