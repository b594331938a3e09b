package sweep

import (
	"context"
	"testing"

	"ethmeasure/internal/core"
)

// TestPooledMatchesColdStart is the sweep-level half of the warm-run
// equivalence contract: the same matrix run with worker-local pooling
// (the default) and with cold builds (KeepResults forces them) must
// produce identical metrics and stats for every run, even with workers
// recycling state across runs that differ in node count.
func TestPooledMatchesColdStart(t *testing.T) {
	matrix := func() *Matrix {
		return &Matrix{
			Base: testConfig(),
			Axes: []Axis{{
				Name: "nodes",
				Variants: []Variant{
					{Name: "small", Apply: func(c *core.Config) { c.NumNodes = 20 }},
					{Name: "large", Apply: func(c *core.Config) { c.NumNodes = 30 }},
				},
			}},
			Seeds: Seeds(1, 2),
		}
	}

	warm := &Runner{Workers: 2}
	if !warm.pooled(testConfig()) {
		t.Fatal("default runner should pool")
	}
	warmRes, err := warm.Run(context.Background(), matrix())
	if err != nil {
		t.Fatal(err)
	}

	cold := &Runner{Workers: 2, KeepResults: true}
	if cold.pooled(testConfig()) {
		t.Fatal("KeepResults runner must not pool")
	}
	coldRes, err := cold.Run(context.Background(), matrix())
	if err != nil {
		t.Fatal(err)
	}

	if len(warmRes) != len(coldRes) {
		t.Fatalf("result counts differ: %d vs %d", len(warmRes), len(coldRes))
	}
	for i := range warmRes {
		w, c := &warmRes[i], &coldRes[i]
		if w.Err != nil || c.Err != nil {
			t.Fatalf("run %d failed: warm=%v cold=%v", i, w.Err, c.Err)
		}
		if !metricsEqual(w.Metrics, c.Metrics) {
			t.Errorf("run %d (%s, seed %d): metrics diverged\nwarm: %v\ncold: %v",
				i, w.Run.Scenario, w.Run.Seed, w.Metrics, c.Metrics)
		}
		ws, cs := w.Stats, c.Stats
		ws.WallDuration, cs.WallDuration = 0, 0
		if ws != cs {
			t.Errorf("run %d: stats diverged: %+v vs %+v", i, ws, cs)
		}
	}
}

// TestKeepResultsDisablesPooling pins the eligibility rule: retaining
// anything derived from a run forces cold builds, because the pool
// would otherwise recycle the collector backing the kept Results.
func TestKeepResultsDisablesPooling(t *testing.T) {
	base := testConfig()
	if (&Runner{KeepResults: true}).pooled(base) {
		t.Error("KeepResults runner must not pool")
	}
	retained := base
	retained.RetainRecords = true
	if (&Runner{}).pooled(retained) {
		t.Error("RetainRecords base must not pool")
	}
	stub := &Runner{runFn: func(core.Config) (*core.Results, error) { return nil, nil }}
	if stub.pooled(base) {
		t.Error("stubbed runner must not pool")
	}
}
