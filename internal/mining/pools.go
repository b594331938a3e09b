// Package mining implements the mining-pool substrate: Poisson
// proof-of-work block production with winners drawn proportionally to
// hash power, geo-placed pool gateways, and the selfish behaviours the
// paper documents — empty-block mining (§III-C3), one-miner forks
// (§III-C5) and rare pool-partition multi-tuples.
package mining

import (
	"fmt"

	"ethmeasure/internal/geo"
)

// PoolSpec describes one mining pool (or the aggregate population of
// remaining small miners).
type PoolSpec struct {
	// Name is the pool's public tag (as scraped from block extra-data
	// by explorers, which is how the paper attributes blocks).
	Name string

	// Power is the pool's share of total network hash power in [0,1].
	Power float64

	// Gateways lists the regions where the pool operates block-publish
	// gateways. Pools deliberately spread gateways and hide their exact
	// location (paper §III-B2); the block originates at one of these.
	Gateways []geo.Region

	// EmptyRate is the probability that a block the pool mines carries
	// no transactions (paper §III-C3).
	EmptyRate float64

	// SiblingRate is the probability that, having mined a block, the
	// pool keeps mining at the same height and publishes a sibling — a
	// one-miner fork that farms uncle rewards (paper §III-C5).
	SiblingRate float64

	// SiblingTripleFrac is the fraction of sibling events that produce
	// two extra siblings instead of one.
	SiblingTripleFrac float64

	// SiblingSameTxFrac is the fraction of siblings mined with the same
	// transaction set as the original (paper §V: 56%).
	SiblingSameTxFrac float64
}

// Validate checks the spec for out-of-range values.
func (s *PoolSpec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("mining: pool spec missing name")
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"Power", s.Power},
		{"EmptyRate", s.EmptyRate},
		{"SiblingRate", s.SiblingRate},
		{"SiblingTripleFrac", s.SiblingTripleFrac},
		{"SiblingSameTxFrac", s.SiblingSameTxFrac},
	} {
		if !(p.v >= 0 && p.v <= 1) { // NaN fails both comparisons
			return fmt.Errorf("mining: pool %s %s %g out of [0,1]", s.Name, p.name, p.v)
		}
	}
	if len(s.Gateways) == 0 {
		return fmt.Errorf("mining: pool %s has no gateway regions", s.Name)
	}
	return nil
}

// PaperPools returns the 15 named pools plus the aggregate remainder,
// with the hash-power shares the paper measured during April 2019
// (Figure 3 parentheses) and behaviour rates calibrated to §III-C3
// (empty blocks) and §III-C5 (one-miner forks).
//
// Gateway placement encodes the paper's finding that several prominent
// pools operate from Asia while Ethermine and Nanopool are
// Europe-centred, producing the Eastern-Asia first-observation
// advantage of Figure 2.
func PaperPools() []PoolSpec {
	ea := []geo.Region{geo.EasternAsia}
	return []PoolSpec{
		{
			Name:  "Ethermine",
			Power: 0.2532,
			// Ethermine is operated from Europe; repeated regions act
			// as publication weights (blocks rotate across gateways).
			Gateways: []geo.Region{
				geo.WesternEurope, geo.WesternEurope, geo.CentralEurope,
				geo.CentralEurope, geo.NorthAmerica, geo.EasternAsia,
			},
			EmptyRate:         0.023,
			SiblingRate:       0.013,
			SiblingTripleFrac: 0.014,
			SiblingSameTxFrac: 0.56,
		},
		{
			Name:  "Sparkpool",
			Power: 0.2288,
			Gateways: []geo.Region{
				geo.EasternAsia, geo.EasternAsia, geo.EasternAsia,
				geo.WesternEurope, geo.CentralEurope,
			},
			EmptyRate:         0.013,
			SiblingRate:       0.013,
			SiblingTripleFrac: 0.014,
			SiblingSameTxFrac: 0.56,
		},
		{
			Name:  "F2pool2",
			Power: 0.1275,
			Gateways: []geo.Region{
				geo.EasternAsia, geo.EasternAsia, geo.EasternAsia,
				geo.WesternEurope,
			},
			EmptyRate:         0.010,
			SiblingRate:       0.010,
			SiblingTripleFrac: 0.014,
			SiblingSameTxFrac: 0.56,
		},
		{
			Name:  "Nanopool",
			Power: 0.1210,
			Gateways: []geo.Region{
				geo.CentralEurope, geo.CentralEurope, geo.EasternEurope,
				geo.WesternEurope, geo.NorthAmerica,
			},
			EmptyRate:         0, // paper: mined no empty blocks
			SiblingRate:       0.008,
			SiblingSameTxFrac: 0.56,
		},
		{
			Name:  "Miningpoolhub1",
			Power: 0.0561,
			// Korea-based with US/EU stratum endpoints.
			Gateways: []geo.Region{
				geo.EasternAsia, geo.EasternAsia, geo.EasternEurope,
				geo.NorthAmerica,
			},
			EmptyRate:         0, // paper: mined no empty blocks
			SiblingRate:       0.006,
			SiblingSameTxFrac: 0.56,
		},
		{
			Name:              "HuoBi.pro",
			Power:             0.0185,
			Gateways:          ea,
			EmptyRate:         0.012,
			SiblingRate:       0.004,
			SiblingSameTxFrac: 0.56,
		},
		{
			Name:              "Pandapool",
			Power:             0.0182,
			Gateways:          ea,
			EmptyRate:         0.010,
			SiblingRate:       0.004,
			SiblingSameTxFrac: 0.56,
		},
		{
			Name:              "DwarfPool1",
			Power:             0.0174,
			Gateways:          []geo.Region{geo.WesternEurope, geo.EasternEurope},
			EmptyRate:         0.008,
			SiblingRate:       0.004,
			SiblingSameTxFrac: 0.56,
		},
		{
			Name:              "Xnpool",
			Power:             0.0134,
			Gateways:          ea,
			EmptyRate:         0.010,
			SiblingRate:       0.003,
			SiblingSameTxFrac: 0.56,
		},
		{
			Name:              "Uupool",
			Power:             0.0133,
			Gateways:          ea,
			EmptyRate:         0.009,
			SiblingRate:       0.003,
			SiblingSameTxFrac: 0.56,
		},
		{
			Name:              "Minerall",
			Power:             0.0123,
			Gateways:          []geo.Region{geo.EasternEurope, geo.CentralEurope},
			EmptyRate:         0.008,
			SiblingRate:       0.003,
			SiblingSameTxFrac: 0.56,
		},
		{
			Name:              "Firepool",
			Power:             0.0122,
			Gateways:          ea,
			EmptyRate:         0.008,
			SiblingRate:       0.003,
			SiblingSameTxFrac: 0.56,
		},
		{
			Name:     "Zhizhu",
			Power:    0.0085,
			Gateways: ea,
			// Paper: more than 25% of Zhizhu's blocks were empty.
			EmptyRate:         0.26,
			SiblingRate:       0.003,
			SiblingSameTxFrac: 0.56,
		},
		{
			Name:              "MiningExpress",
			Power:             0.0081,
			Gateways:          ea,
			EmptyRate:         0.12,
			SiblingRate:       0.003,
			SiblingSameTxFrac: 0.56,
		},
		{
			Name:              "Hiveon",
			Power:             0.0077,
			Gateways:          []geo.Region{geo.CentralEurope, geo.EasternEurope},
			EmptyRate:         0.005,
			SiblingRate:       0.003,
			SiblingSameTxFrac: 0.56,
		},
		{
			Name:  "Remaining",
			Power: 0.0839,
			// Small independent miners are spread world-wide. Includes
			// the curious account that only ever mined empty blocks.
			Gateways: []geo.Region{
				geo.NorthAmerica, geo.EasternAsia, geo.WesternEurope,
				geo.CentralEurope, geo.EasternEurope, geo.SoutheastAsia,
				geo.SouthAmerica, geo.Oceania,
			},
			EmptyRate:         0.003,
			SiblingRate:       0.001,
			SiblingSameTxFrac: 0.56,
		},
	}
}

// UniformGatewayPools returns the same power distribution as
// PaperPools but with every pool's gateways spread across all regions.
// The geography ablation uses it to show the Eastern-Asia advantage of
// Figure 2 disappear.
func UniformGatewayPools() []PoolSpec {
	pools := PaperPools()
	all := geo.AllRegions()
	for i := range pools {
		pools[i].Gateways = all
	}
	return pools
}
