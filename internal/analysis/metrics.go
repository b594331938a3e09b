package analysis

import "sort"

// Metric name constants: the stable identifiers under which each
// analyzer exposes its headline scalars for cross-seed aggregation
// (internal/sweep). Names are flat snake_case with the unit suffixed,
// so a sweep's JSON output is self-describing.
const (
	MetricPropMedianMs = "propagation_median_ms"
	MetricPropMeanMs   = "propagation_mean_ms"
	MetricPropP95Ms    = "propagation_p95_ms"
	MetricPropP99Ms    = "propagation_p99_ms"

	MetricForkRate          = "fork_rate"
	MetricForkMainShare     = "fork_main_share"
	MetricForkUncleShare    = "fork_recognized_share"
	MetricOneMinerForkShare = "one_miner_fork_share"

	MetricEmptyShare = "empty_block_share"

	MetricCommitMedian12Sec = "commit_median12_sec"
	MetricOutOfOrderShare   = "tx_out_of_order_share"

	MetricInterBlockMeanSec = "interblock_mean_sec"
	MetricSidePowerShare    = "side_power_share"

	// Reward metrics are denominated in the consensus protocol's native
	// coin units; protocol-conditional entries (the uncle share) appear
	// only when the protocol pays references, so cross-protocol sweeps
	// aggregate only the metrics each run actually produced.
	MetricRewardTotalCoin   = "reward_total_coin"
	MetricRewardUncleShare  = "reward_uncle_share"
	MetricRewardWastedShare = "reward_wasted_share"
)

// KeyMetrics flattens the headline scalar figures of one campaign into
// named values. It is the unit that cross-seed sweep aggregation folds
// over: every metric is a pure function of the run's deterministic
// analysis results, so equal seeds produce equal KeyMetrics.
type KeyMetrics map[string]float64

// Merge copies every entry of o into m, overwriting on collision.
func (m KeyMetrics) Merge(o KeyMetrics) {
	for k, v := range o {
		m[k] = v
	}
}

// Names returns the metric names in sorted order (deterministic
// iteration for reports and tests).
func (m KeyMetrics) Names() []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// KeyMetrics extracts the Figure 1 headline delays. Nil-safe.
func (r *PropagationResult) KeyMetrics() KeyMetrics {
	if r == nil || r.Blocks == 0 {
		return nil
	}
	return KeyMetrics{
		MetricPropMedianMs: r.MedianMs,
		MetricPropMeanMs:   r.MeanMs,
		MetricPropP95Ms:    r.P95Ms,
		MetricPropP99Ms:    r.P99Ms,
	}
}

// KeyMetrics extracts the Table III block-partition shares. The fork
// rate is the share of blocks that did not make the main chain. The
// recognized-uncle share is protocol-conditional: protocols without
// references contribute no entry rather than a structural zero.
func (r *ForksResult) KeyMetrics() KeyMetrics {
	if r == nil || r.TotalBlocks == 0 {
		return nil
	}
	m := KeyMetrics{
		MetricForkRate:      1 - r.MainShare,
		MetricForkMainShare: r.MainShare,
	}
	if r.References {
		m[MetricForkUncleShare] = r.RecognizedShare
	}
	return m
}

// KeyMetrics extracts the §V reward-flow headline scalars. The uncle
// share is protocol-conditional, like the fork classifier's.
func (r *RewardsResult) KeyMetrics() KeyMetrics {
	if r == nil || r.TotalETH == 0 {
		return nil
	}
	m := KeyMetrics{
		MetricRewardTotalCoin:   r.TotalETH,
		MetricRewardWastedShare: r.WastedShare,
	}
	if r.References {
		m[MetricRewardUncleShare] = r.UncleETH / r.TotalETH
	}
	return m
}

// KeyMetrics extracts the §III-C5 one-miner-fork share of all forks.
func (r *OneMinerForksResult) KeyMetrics() KeyMetrics {
	if r == nil || r.Events == 0 {
		return nil
	}
	return KeyMetrics{MetricOneMinerForkShare: r.ShareOfAllForks}
}

// KeyMetrics extracts the Figure 6 empty-block share. A run in which
// no main-chain block carried a transaction (no tx workload) has a
// share of 1 by construction and contributes no entry.
func (r *EmptyBlocksResult) KeyMetrics() KeyMetrics {
	if r == nil || r.MainBlocks == 0 || r.EmptyBlocks == r.MainBlocks {
		return nil
	}
	return KeyMetrics{MetricEmptyShare: r.EmptyShare}
}

// KeyMetrics extracts the Figure 4 headline commit time.
func (r *CommitTimeResult) KeyMetrics() KeyMetrics {
	if r == nil || r.CommittedTxs == 0 {
		return nil
	}
	return KeyMetrics{MetricCommitMedian12Sec: r.Median12Sec}
}

// KeyMetrics extracts the Figure 5 out-of-order commit share.
func (r *OrderingResult) KeyMetrics() KeyMetrics {
	if r == nil || r.CommittedTxs == 0 {
		return nil
	}
	return KeyMetrics{MetricOutOfOrderShare: r.OutOfOrderShare}
}

// KeyMetrics extracts the §III-C1 mean inter-block gap.
func (r *InterBlockResult) KeyMetrics() KeyMetrics {
	if r == nil || r.Blocks == 0 {
		return nil
	}
	return KeyMetrics{MetricInterBlockMeanSec: r.MeanSec}
}

// KeyMetrics extracts the §V wasted-power share.
func (r *ThroughputResult) KeyMetrics() KeyMetrics {
	if r == nil || r.TotalBlocks == 0 {
		return nil
	}
	return KeyMetrics{MetricSidePowerShare: r.SidePowerShare}
}
