package analysis

import (
	"ethmeasure/internal/stats"
	"ethmeasure/internal/types"
)

// FeeBandRow summarises inclusion latency for one gas-price band.
type FeeBandRow struct {
	Label    string
	MinPrice uint64
	MaxPrice uint64 // inclusive upper bound; 0 = unbounded

	Txs          int
	InclusionP50 float64 // seconds
	InclusionP90 float64
}

// FeeMarketResult relates gas price to inclusion delay: the fee-market
// mechanism behind the paper's commit-time observations — miners select
// by price, so cheap transactions wait longer. The paper aggregates
// over all transactions; this drill-down exposes the mechanism.
type FeeMarketResult struct {
	Bands []FeeBandRow

	// MedianTrendDecreasing reports whether the inclusion median falls
	// as the fee band rises (the expected fee-market signature).
	MedianTrendDecreasing bool
}

// defaultFeeBands partitions the workload's price range: the filler
// band (1-3), the market floor, and escalating market tiers.
var defaultFeeBands = []FeeBandRow{
	{Label: "reservoir (1-3)", MinPrice: 1, MaxPrice: 3},
	{Label: "low (4-14)", MinPrice: 4, MaxPrice: 14},
	{Label: "market (15-39)", MinPrice: 15, MaxPrice: 39},
	{Label: "premium (40+)", MinPrice: 40, MaxPrice: 0},
}

// FeeMarket finalizes inclusion delay per gas-price band from the
// shared transaction arrival index. priceOf maps a transaction hash to
// its gas price (return 0, false when unknown).
func (c *Collector) FeeMarket(priceOf func(types.Hash) (uint64, bool)) *FeeMarketResult {
	samples := make([]*stats.Sample, len(defaultFeeBands))
	for i := range samples {
		samples[i] = stats.NewSample(256)
	}
	for _, a := range c.txList {
		price, ok := priceOf(a.hash)
		if !ok {
			continue
		}
		inclAt, ok := c.commitSeen(a.hash, 0)
		if !ok {
			continue
		}
		for i, band := range defaultFeeBands {
			if price < band.MinPrice {
				continue
			}
			if band.MaxPrice != 0 && price > band.MaxPrice {
				continue
			}
			samples[i].Add(secondsSince(a.minTime, inclAt))
			break
		}
	}

	res := &FeeMarketResult{}
	var medians []float64
	for i, band := range defaultFeeBands {
		row := band
		row.Txs = samples[i].N()
		if row.Txs > 0 {
			row.InclusionP50 = samples[i].MustQuantile(0.5)
			row.InclusionP90 = samples[i].MustQuantile(0.9)
			medians = append(medians, row.InclusionP50)
		}
		res.Bands = append(res.Bands, row)
	}
	// Expected signature: medians fall (weakly) as fee bands rise.
	res.MedianTrendDecreasing = len(medians) >= 2 && medians[0] >= medians[len(medians)-1]
	return res
}
