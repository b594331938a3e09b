package analysis

// GeoDelayResult drills into Figure 1: per-vantage block reception
// delays relative to the first observation, exposing which vantage
// pairs sit close together (WE/CE) and which lag (NA behind EA-origin
// blocks) — the geographic structure that Figure 2 summarises as
// first-observation counts.
type GeoDelayResult struct {
	Vantages []string

	// MedianMs[v] is the median delay of vantage v behind the first
	// observer, over blocks where v was not first.
	MedianMs map[string]float64

	// P90Ms[v] is the 90th percentile of the same distribution.
	P90Ms map[string]float64

	// Samples[v] is the number of (block, v) lag observations.
	Samples map[string]int

	Blocks int
}

// GeoDelay finalizes per-vantage lag distributions from the block lag
// profile.
func (c *Collector) GeoDelay() *GeoDelayResult {
	lags := c.blockLags()
	res := &GeoDelayResult{
		Vantages: append([]string(nil), c.ds.Vantages...),
		MedianMs: make(map[string]float64, len(c.ds.Vantages)),
		P90Ms:    make(map[string]float64, len(c.ds.Vantages)),
		Samples:  make(map[string]int, len(c.ds.Vantages)),
		Blocks:   lags.arrivals,
	}
	for vi, v := range c.ds.Vantages {
		s := lags.slotMs[vi]
		res.Samples[v] = s.N()
		if s.N() > 0 {
			res.MedianMs[v] = s.MustQuantile(0.5)
			res.P90Ms[v] = s.MustQuantile(0.9)
		}
	}
	return res
}
