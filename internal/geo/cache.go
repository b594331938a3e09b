package geo

import "sync"

// Shared latency-model cache. A LatencyModel is immutable once
// constructed (finalize flattens the matrices; Sample only reads), so
// concurrent sweep workers can safely share one instance instead of
// re-flattening the full region×region matrix for every run.

var (
	defaultModelOnce sync.Once
	defaultModel     *LatencyModel
)

// SharedDefaultLatencyModel returns the process-wide default latency
// model. It is the cached equivalent of DefaultLatencyModel: the same
// matrices, built once, safe for concurrent read-only use.
func SharedDefaultLatencyModel() *LatencyModel {
	defaultModelOnce.Do(func() { defaultModel = DefaultLatencyModel() })
	return defaultModel
}
