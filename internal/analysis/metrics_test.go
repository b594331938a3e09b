package analysis

import (
	"reflect"
	"testing"
)

func TestKeyMetricsNilSafety(t *testing.T) {
	var (
		prop   *PropagationResult
		forks  *ForksResult
		empty  *EmptyBlocksResult
		commit *CommitTimeResult
		order  *OrderingResult
		inter  *InterBlockResult
		thru   *ThroughputResult
		one    *OneMinerForksResult
	)
	for name, m := range map[string]KeyMetrics{
		"propagation": prop.KeyMetrics(),
		"forks":       forks.KeyMetrics(),
		"empty":       empty.KeyMetrics(),
		"commit":      commit.KeyMetrics(),
		"ordering":    order.KeyMetrics(),
		"interblock":  inter.KeyMetrics(),
		"throughput":  thru.KeyMetrics(),
		"oneminer":    one.KeyMetrics(),
	} {
		if m != nil {
			t.Errorf("%s: nil receiver produced metrics %v", name, m)
		}
	}
	// Zero-observation results also contribute nothing.
	if m := (&PropagationResult{}).KeyMetrics(); m != nil {
		t.Errorf("empty propagation produced %v", m)
	}
	if m := (&ForksResult{}).KeyMetrics(); m != nil {
		t.Errorf("empty forks produced %v", m)
	}
}

func TestKeyMetricsExtraction(t *testing.T) {
	prop := &PropagationResult{Blocks: 10, MedianMs: 74, MeanMs: 109, P95Ms: 211, P99Ms: 317}
	m := prop.KeyMetrics()
	want := KeyMetrics{
		MetricPropMedianMs: 74,
		MetricPropMeanMs:   109,
		MetricPropP95Ms:    211,
		MetricPropP99Ms:    317,
	}
	if !reflect.DeepEqual(m, want) {
		t.Errorf("propagation metrics = %v", m)
	}

	forks := &ForksResult{References: true, TotalBlocks: 100, MainShare: 0.9281, RecognizedShare: 0.05}
	fm := forks.KeyMetrics()
	if fm[MetricForkMainShare] != 0.9281 || fm[MetricForkUncleShare] != 0.05 {
		t.Errorf("fork metrics = %v", fm)
	}
	if got := fm[MetricForkRate]; got < 0.0718 || got > 0.072 {
		t.Errorf("fork rate = %v", got)
	}

	// The recognized-uncle share is protocol-conditional: a
	// no-reference protocol contributes no entry.
	noRefs := &ForksResult{References: false, TotalBlocks: 100, MainShare: 0.95}
	if m := noRefs.KeyMetrics(); len(m) != 2 {
		t.Errorf("no-reference fork metrics = %v", m)
	} else if _, ok := m[MetricForkUncleShare]; ok {
		t.Errorf("no-reference protocol emitted %s", MetricForkUncleShare)
	}

	rewards := &RewardsResult{References: true, TotalETH: 200, UncleETH: 10, WastedShare: 0.01}
	rm := rewards.KeyMetrics()
	if rm[MetricRewardTotalCoin] != 200 || rm[MetricRewardUncleShare] != 0.05 || rm[MetricRewardWastedShare] != 0.01 {
		t.Errorf("reward metrics = %v", rm)
	}
	btc := &RewardsResult{References: false, TotalETH: 100, WastedShare: 0.02}
	if m := btc.KeyMetrics(); len(m) != 2 {
		t.Errorf("no-reference reward metrics = %v", m)
	}
	if m := (*RewardsResult)(nil).KeyMetrics(); m != nil {
		t.Errorf("nil rewards produced %v", m)
	}
}

func TestKeyMetricsMergeAndNames(t *testing.T) {
	m := make(KeyMetrics)
	m.Merge(KeyMetrics{"b": 2, "a": 1})
	m.Merge(nil) // merging nil is a no-op
	m.Merge(KeyMetrics{"c": 3, "a": 9})
	if len(m) != 3 || m["a"] != 9 {
		t.Errorf("merged = %v", m)
	}
	names := m.Names()
	if !reflect.DeepEqual(names, []string{"a", "b", "c"}) {
		t.Errorf("names = %v", names)
	}
}

// TestEmptyBlocksKeyMetricsNeedsTxs: a run whose main-chain blocks are
// all empty (no tx workload) has a trivial share of 1 and emits no
// entry; a run with some non-empty blocks emits its share.
func TestEmptyBlocksKeyMetricsNeedsTxs(t *testing.T) {
	allEmpty := &EmptyBlocksResult{MainBlocks: 40, EmptyBlocks: 40, EmptyShare: 1}
	if m := allEmpty.KeyMetrics(); m != nil {
		t.Errorf("all-empty run produced %v", m)
	}
	mixed := &EmptyBlocksResult{MainBlocks: 40, EmptyBlocks: 2, EmptyShare: 0.05}
	if m := mixed.KeyMetrics(); !reflect.DeepEqual(m, KeyMetrics{MetricEmptyShare: 0.05}) {
		t.Errorf("mixed run metrics = %v", m)
	}
}
