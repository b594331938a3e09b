package analysis

import (
	"time"

	"ethmeasure/internal/stats"
)

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

// GeoDelay finalizes per-vantage lag distributions from the shared
// arrival index.
func (c *Collector) GeoDelay() *GeoDelayResult {
	res := &GeoDelayResult{
		Vantages: append([]string(nil), c.ds.Vantages...),
		MedianMs: make(map[string]float64, len(c.ds.Vantages)),
		P90Ms:    make(map[string]float64, len(c.ds.Vantages)),
		Samples:  make(map[string]int, len(c.ds.Vantages)),
	}
	perVantage := make([]*stats.Sample, len(c.ds.Vantages))
	for vi := range perVantage {
		perVantage[vi] = stats.NewSample(1024)
	}
	for _, a := range c.sortedArrivals() {
		if a.vantages < 2 {
			continue
		}
		res.Blocks++
		for vi := range a.at {
			if vi == a.minVant || a.seen&(1<<uint(vi)) == 0 {
				continue
			}
			delta := a.at[vi] - a.minTime
			if delta < 0 {
				delta = 0
			}
			perVantage[vi].Add(float64(delta) / float64(time.Millisecond))
		}
	}
	for vi, v := range c.ds.Vantages {
		s := perVantage[vi]
		res.Samples[v] = s.N()
		if s.N() > 0 {
			res.MedianMs[v] = s.MustQuantile(0.5)
			res.P90Ms[v] = s.MustQuantile(0.9)
		}
	}
	return res
}
