package analysis

import (
	"time"

	"ethmeasure/internal/stats"
)

// PropagationResult reproduces Figure 1: the distribution of block
// propagation delays, defined (paper §II) as the time difference
// between the first observation of a block at any measurement node and
// its arrival at each remaining node.
type PropagationResult struct {
	// DelaysMs holds one entry per (block, later-vantage) pair, in
	// milliseconds, as perturbed by each machine's NTP offset.
	DelaysMs *stats.Sample

	// Histogram is the PDF over [0, 500) ms the paper plots.
	Histogram *stats.Histogram

	// MedianMs, MeanMs, P95Ms, P99Ms are the headline statistics
	// (paper: 74, 109, 211, 317 ms).
	MedianMs, MeanMs, P95Ms, P99Ms float64

	// Blocks is the number of blocks observed by at least two vantages.
	Blocks int

	// InterBlockRatio is mean inter-block time / mean delay, showing
	// propagation is orders of magnitude faster than block production.
	InterBlockRatio float64
}

// Propagation finalizes the Figure 1 analysis from the block lag
// profile.
func (c *Collector) Propagation() (*PropagationResult, error) {
	hist, err := stats.NewHistogram(0, 500, 50)
	if err != nil {
		return nil, err
	}
	lags := c.blockLags()
	sample := lags.lagsMs
	for _, ms := range sample.Values() {
		hist.Add(ms)
	}
	res := &PropagationResult{
		DelaysMs:  sample,
		Histogram: hist,
		Blocks:    lags.arrivals,
	}
	if sample.N() > 0 {
		res.MedianMs = sample.MustQuantile(0.5)
		mean, err := sample.Mean()
		if err != nil {
			return nil, err
		}
		res.MeanMs = mean
		res.P95Ms = sample.MustQuantile(0.95)
		res.P99Ms = sample.MustQuantile(0.99)
		if res.MeanMs > 0 {
			res.InterBlockRatio = float64(c.ds.InterBlock) / float64(time.Millisecond) / res.MeanMs
		}
	}
	return res, nil
}
