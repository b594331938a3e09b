package analysis

import "ethmeasure/internal/stats"

// TxPropagationResult covers §III-A1's transaction-propagation
// finding: unlike blocks, transaction first observations are *not*
// meaningfully skewed by geography, because transactions are small,
// propagate within the NTP measurement error, and originate from a
// geographically dispersed sender population.
type TxPropagationResult struct {
	Vantages []string

	// FirstShares is each vantage's share of transaction first
	// observations (near-uniform, unlike Figure 2's block shares).
	FirstShares map[string]float64

	// MedianDelayMs maps each vantage to the median delay between the
	// global first observation of a transaction and that vantage's
	// observation. Values inside the 10 ms NTP bound support the
	// paper's "not affected by geographic location" conclusion.
	MedianDelayMs map[string]float64

	// DelaysMs pools all (tx, later-vantage) delays.
	DelaysMs *stats.Sample

	Txs int

	// FirstShareSpread is the largest difference between vantage first-
	// observation shares, a scalar "geo skew" indicator.
	FirstShareSpread float64
}

// TxPropagation finalizes the §III-A1 transaction-geography analysis
// from the transaction lag profile.
func (c *Collector) TxPropagation() *TxPropagationResult {
	lags := c.txLags()
	res := &TxPropagationResult{
		Vantages:      append([]string(nil), c.ds.Vantages...),
		FirstShares:   make(map[string]float64, len(c.ds.Vantages)),
		MedianDelayMs: make(map[string]float64, len(c.ds.Vantages)),
		DelaysMs:      lags.lagsMs,
		Txs:           lags.arrivals,
	}
	if res.Txs == 0 {
		return res
	}
	minShare, maxShare := 1.0, 0.0
	for vi, v := range c.ds.Vantages {
		share := float64(lags.firsts[vi]) / float64(res.Txs)
		res.FirstShares[v] = share
		if share < minShare {
			minShare = share
		}
		if share > maxShare {
			maxShare = share
		}
		if s := lags.slotMs[vi]; s.N() > 0 {
			res.MedianDelayMs[v] = s.MustQuantile(0.5)
		}
	}
	res.FirstShareSpread = maxShare - minShare
	return res
}
