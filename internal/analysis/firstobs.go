package analysis

import (
	"math/bits"
	"sort"

	"ethmeasure/internal/types"
)

// FirstObservationResult reproduces Figure 2: the proportion of new
// blocks each vantage was the first to observe. The paper found
// Eastern Asia first ~40% of the time and North America about four
// times less often (§III-B1).
type FirstObservationResult struct {
	Vantages []string
	Shares   map[string]float64 // vantage -> fraction of blocks seen first
	Counts   map[string]int
	Blocks   int

	// UncertainShare is the fraction of blocks whose first and second
	// observations fall within 10 ms — inside the NTP offset bound, so
	// the winner is not statistically meaningful (the paper's error
	// bars).
	UncertainShare float64
}

// FirstObservation finalizes Figure 2 from the block lag profile.
// Counts and Shares list only the vantages that saw some block first.
func (c *Collector) FirstObservation() *FirstObservationResult {
	lags := c.blockLags()
	res := &FirstObservationResult{
		Vantages: append([]string(nil), c.ds.Vantages...),
		Shares:   make(map[string]float64, len(c.ds.Vantages)),
		Counts:   make(map[string]int, len(c.ds.Vantages)),
		Blocks:   lags.arrivals,
	}
	for vi, v := range c.ds.Vantages {
		if n := lags.firsts[vi]; n > 0 {
			res.Counts[v] = n
			res.Shares[v] = float64(n) / float64(res.Blocks)
		}
	}
	if res.Blocks > 0 {
		res.UncertainShare = float64(lags.close) / float64(res.Blocks)
	}
	return res
}

// PoolGeographyRow is one bar group of Figure 3: which vantage sees a
// given pool's blocks first, and how often.
type PoolGeographyRow struct {
	Pool       string
	PowerShare float64 // fraction of observed blocks mined by this pool
	Blocks     int
	Shares     map[string]float64 // vantage -> first-observation share
}

// PoolGeographyResult reproduces Figure 3: first observations broken
// down by the block's origin mining pool, showing that pool gateways
// are not evenly geographically distributed (§III-B2).
type PoolGeographyResult struct {
	Vantages []string
	Rows     []PoolGeographyRow // top pools by block count, descending
	Blocks   int
}

// PoolGeography finalizes Figure 3 over the topN most productive
// pools; remaining pools aggregate into a final "Remaining miners"
// row. The block's miner comes from the chain registry, available at
// finalize time.
func (c *Collector) PoolGeography(topN int) *PoolGeographyResult {
	type poolAgg struct {
		blocks int
		firsts map[string]int
	}
	byPool := make(map[types.PoolID]*poolAgg)
	total := 0
	for _, a := range c.sortedArrivals() {
		if bits.OnesCount64(a.seen) < 2 {
			continue
		}
		b, ok := c.ds.Chain.Get(a.hash)
		if !ok || b.Miner == 0 {
			continue
		}
		agg, ok := byPool[b.Miner]
		if !ok {
			agg = &poolAgg{firsts: make(map[string]int, 4)}
			byPool[b.Miner] = agg
		}
		agg.blocks++
		agg.firsts[c.vantageName(a.minVant)]++
		total++
	}

	ids := make([]types.PoolID, 0, len(byPool))
	for id := range byPool {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if byPool[ids[i]].blocks != byPool[ids[j]].blocks {
			return byPool[ids[i]].blocks > byPool[ids[j]].blocks
		}
		return ids[i] < ids[j]
	})

	res := &PoolGeographyResult{
		Vantages: append([]string(nil), c.ds.Vantages...),
		Blocks:   total,
	}
	makeRow := func(name string, agg *poolAgg) PoolGeographyRow {
		row := PoolGeographyRow{
			Pool:   name,
			Blocks: agg.blocks,
			Shares: make(map[string]float64, len(agg.firsts)),
		}
		if total > 0 {
			row.PowerShare = float64(agg.blocks) / float64(total)
		}
		for v, cnt := range agg.firsts {
			row.Shares[v] = float64(cnt) / float64(agg.blocks)
		}
		return row
	}
	rest := &poolAgg{firsts: make(map[string]int, 4)}
	for i, id := range ids {
		if topN <= 0 || i < topN {
			res.Rows = append(res.Rows, makeRow(c.ds.PoolName(id), byPool[id]))
			continue
		}
		rest.blocks += byPool[id].blocks
		for v, cnt := range byPool[id].firsts {
			rest.firsts[v] += cnt
		}
	}
	if rest.blocks > 0 {
		res.Rows = append(res.Rows, makeRow("Remaining miners", rest))
	}
	return res
}
