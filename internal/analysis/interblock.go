package analysis

import (
	"math"

	"ethmeasure/internal/stats"
)

// InterBlockResult characterizes the block production process: the
// paper's campaign measured a mean inter-block time of 13.3 s (down
// from 14.3 s in 2017 after the Constantinople difficulty-bomb delay),
// which drives commit times (§III-C1) and fork exposure.
type InterBlockResult struct {
	// GapsSec are main-chain inter-block gaps (by mining timestamp).
	GapsSec *stats.Sample

	MeanSec   float64
	MedianSec float64
	P95Sec    float64

	// CoeffVar is stddev/mean. Proof-of-work arrivals are memoryless,
	// so a healthy chain sits near 1 (exponential inter-arrivals).
	CoeffVar float64

	Blocks int
}

// InterBlock computes main-chain inter-block statistics from block
// mining times.
func InterBlock(d *Dataset) *InterBlockResult {
	main := d.index().main
	res := &InterBlockResult{GapsSec: stats.NewSample(len(main))}
	for i := 2; i < len(main); i++ { // skip the genesis gap
		gap := main[i].MinedAt - main[i-1].MinedAt
		if gap < 0 {
			gap = 0
		}
		res.GapsSec.Add(gap.Seconds())
	}
	res.Blocks = res.GapsSec.N()
	if res.Blocks == 0 {
		return res
	}
	mean, _ := res.GapsSec.Mean()
	res.MeanSec = mean
	res.MedianSec = res.GapsSec.MustQuantile(0.5)
	res.P95Sec = res.GapsSec.MustQuantile(0.95)
	if mean > 0 {
		variance := 0.0
		for _, g := range res.GapsSec.Values() {
			variance += (g - mean) * (g - mean)
		}
		variance /= float64(res.Blocks)
		res.CoeffVar = math.Sqrt(variance) / mean
	}
	return res
}
