package sweep

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/core"
)

// testConfig returns a campaign small enough that a sweep of a dozen
// runs stays fast even under the race detector.
func testConfig() core.Config {
	cfg := core.QuickConfig()
	cfg.Duration = 90 * time.Second
	if testing.Short() {
		cfg.Duration = time.Minute
	}
	cfg.NumNodes = 45
	cfg.OutDegree = 5
	peerCap := 16
	if raceEnabled {
		cfg.Duration = 25 * time.Second
		cfg.NumNodes = 24
		cfg.OutDegree = 4
		peerCap = 8
	}
	for i := range cfg.Vantages {
		if cfg.Vantages[i].Peers > peerCap {
			cfg.Vantages[i].Peers = peerCap
		}
	}
	cfg.EnableTxWorkload = false
	return cfg
}

func metricsEqual(a, b analysis.KeyMetrics) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// TestParallelMatchesSerialAggregate is the determinism contract at
// sweep level: executing the same matrix with one worker and with many
// must produce byte-identical aggregates. The nodes axis makes the
// single worker run campaigns of differing sizes back to back (growing
// and shrinking), and each must equal its run on a worker of its own.
func TestParallelMatchesSerialAggregate(t *testing.T) {
	seeds := 3
	if testing.Short() || raceEnabled {
		seeds = 2
	}
	matrix := func() *Matrix {
		return &Matrix{
			Base:  testConfig(),
			Seeds: Seeds(1, seeds),
			Axes:  []Axis{Discovery(false, true), Nodes(20, 30)},
		}
	}

	serial, err := (&Runner{Workers: 1}).Run(context.Background(), matrix())
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := (&Runner{Workers: matrix().NumRuns()}).Run(context.Background(), matrix())
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("run counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !serial[i].Ok() || !parallel[i].Ok() {
			t.Fatalf("run %d failed: serial=%v parallel=%v", i, serial[i].Err, parallel[i].Err)
		}
		if !metricsEqual(serial[i].Metrics, parallel[i].Metrics) {
			t.Errorf("run %d metrics differ:\nserial:   %v\nparallel: %v",
				i, serial[i].Metrics, parallel[i].Metrics)
		}
		if serial[i].Stats.Events != parallel[i].Stats.Events {
			t.Errorf("run %d event counts differ: %d vs %d",
				i, serial[i].Stats.Events, parallel[i].Stats.Events)
		}
	}

	var a, b bytes.Buffer
	if err := Aggregate(serial).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := Aggregate(parallel).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("aggregates not byte-identical:\nserial:   %s\nparallel: %s", a.String(), b.String())
	}
}

// TestOversubscribedWorkersMatchSerial pushes the worker count well
// past GOMAXPROCS — viable because each run streams its records
// through the collector and keeps none in memory — and requires
// byte-identical aggregates against a serial execution.
func TestOversubscribedWorkersMatchSerial(t *testing.T) {
	matrix := func() *Matrix {
		return &Matrix{
			Base:  testConfig(),
			Seeds: Seeds(5, 2),
			Axes:  []Axis{Discovery(false, true)},
		}
	}
	serial, err := (&Runner{Workers: 1}).Run(context.Background(), matrix())
	if err != nil {
		t.Fatal(err)
	}
	over, err := (&Runner{Workers: 4 * DefaultWorkers()}).Run(context.Background(), matrix())
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := Aggregate(serial).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := Aggregate(over).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("oversubscribed aggregate diverged:\nserial: %s\nover:   %s", a.String(), b.String())
	}
}

// TestRunnerBoundedMemoryDefault verifies KeepResults: a runner that
// sets it hands back each run's full Results.
func TestRunnerBoundedMemoryDefault(t *testing.T) {
	m := &Matrix{Base: testConfig(), Seeds: Seeds(9, 1)}
	res, err := (&Runner{Workers: 1, KeepResults: true}).Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if !res[0].Ok() || res[0].Results == nil {
		t.Fatal("run failed or results dropped")
	}
}

// TestRunnerConcurrentCampaignsNoLeakage drives >= 8 campaigns
// concurrently (one worker each), twice, and spot-checks against
// serial executions of the same configs: any shared state between
// engine instances — RNG streams, recorders, registries — would show
// up as metrics diverging between the two differently-interleaved
// parallel executions or from the serial references. Run with -race
// this also proves the runner itself adds no data races.
func TestRunnerConcurrentCampaignsNoLeakage(t *testing.T) {
	m := &Matrix{Base: testConfig(), Seeds: Seeds(1, 8)}
	first, err := (&Runner{Workers: 8}).Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}

	distinct := make(map[string]bool)
	for i := range first {
		if !first[i].Ok() {
			t.Fatalf("run %d failed: %v", i, first[i].Err)
		}
		distinct[formatMetrics(first[i].Metrics)] = true
	}

	// A second, differently-interleaved parallel execution must
	// reproduce the first exactly. Skipped under the race detector
	// (instrumentation makes it very slow and adds nothing there —
	// the first execution already exposes races).
	if !raceEnabled {
		second, err := (&Runner{Workers: 8}).Run(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if !second[i].Ok() {
				t.Fatalf("second run %d failed: %v", i, second[i].Err)
			}
			if !metricsEqual(first[i].Metrics, second[i].Metrics) {
				t.Errorf("seed %d: metrics differ across parallel executions:\nfirst:  %v\nsecond: %v",
					first[i].Run.Seed, first[i].Metrics, second[i].Metrics)
			}
			if first[i].Stats.Events != second[i].Stats.Events {
				t.Errorf("seed %d: event counts differ: %d vs %d",
					first[i].Run.Seed, first[i].Stats.Events, second[i].Stats.Events)
			}
		}
	}
	// Different seeds must actually explore different outcomes —
	// identical metrics across all seeds would indicate the seed is
	// not reaching the engines.
	if len(distinct) < 2 {
		t.Error("all 8 seeds produced identical metrics (suspicious)")
	}

	// Spot-check two runs against fully serial references.
	for _, i := range []int{0, len(first) - 1} {
		ref, err := runCampaign(context.Background(), first[i].Run.Config)
		if err != nil {
			t.Fatal(err)
		}
		if !metricsEqual(first[i].Metrics, ref.KeyMetrics()) {
			t.Errorf("seed %d: concurrent metrics diverge from serial reference:\nconcurrent: %v\nserial:     %v",
				first[i].Run.Seed, first[i].Metrics, ref.KeyMetrics())
		}
		if first[i].Stats.Events != ref.Stats.Events {
			t.Errorf("seed %d: event count %d != serial %d",
				first[i].Run.Seed, first[i].Stats.Events, ref.Stats.Events)
		}
	}
}

func formatMetrics(m analysis.KeyMetrics) string {
	var sb strings.Builder
	for _, name := range m.Names() {
		fmt.Fprintf(&sb, "%s=%x;", name, math.Float64bits(m[name]))
	}
	return sb.String()
}

// TestRunnerCancellationMidFlight cancels a sweep after the first two
// results: pending runs must be marked with the context error, the
// call must surface context.Canceled, and completed runs must still
// carry valid, uncorrupted metrics.
func TestRunnerCancellationMidFlight(t *testing.T) {
	m := &Matrix{Base: testConfig(), Seeds: Seeds(1, 10)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var once sync.Once
	runner := &Runner{
		Workers: 2,
		OnResult: func(done, total int, r *RunResult) {
			if done >= 2 {
				once.Do(cancel)
			}
		},
	}
	results, err := runner.Run(ctx, m)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != 10 {
		t.Fatalf("results = %d, want full slate of 10", len(results))
	}
	completed, skipped := 0, 0
	for i := range results {
		switch {
		case results[i].Ok():
			completed++
			if results[i].Stats.Events == 0 {
				t.Errorf("completed run %d carries no stats", i)
			}
		case errors.Is(results[i].Err, context.Canceled):
			skipped++
			if results[i].Metrics != nil {
				t.Errorf("skipped run %d carries metrics", i)
			}
			if results[i].Run.Seed != int64(i+1) {
				t.Errorf("skipped run %d lost its identity: %+v", i, results[i].Run)
			}
		default:
			t.Errorf("run %d in unexpected state: err=%v", i, results[i].Err)
		}
	}
	if completed < 2 {
		t.Errorf("completed = %d, want >= 2", completed)
	}
	if skipped == 0 {
		t.Error("cancellation mid-flight skipped nothing — cancel had no effect")
	}
}

// TestRunnerPanicIsolation: a panicking run must not take down the
// sweep; its slot records the panic and the other runs complete.
func TestRunnerPanicIsolation(t *testing.T) {
	fake := func(seed int64) *core.Results {
		return &core.Results{
			Propagation: &analysis.PropagationResult{Blocks: 1, MedianMs: float64(seed)},
		}
	}
	runner := &Runner{
		Workers: 4,
		runFn: func(_ context.Context, cfg core.Config) (*core.Results, error) {
			if cfg.Seed == 3 {
				panic("kaboom")
			}
			if cfg.Seed == 4 {
				return nil, errors.New("plain failure")
			}
			return fake(cfg.Seed), nil
		},
	}
	m := &Matrix{Base: testConfig(), Seeds: Seeds(1, 6)}
	results, err := runner.Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		switch results[i].Run.Seed {
		case 3:
			if results[i].Err == nil || !strings.Contains(results[i].Err.Error(), "panicked") {
				t.Errorf("panic not captured: %v", results[i].Err)
			}
			if !strings.Contains(results[i].Err.Error(), "kaboom") {
				t.Errorf("panic value lost: %v", results[i].Err)
			}
		case 4:
			if results[i].Err == nil || !strings.Contains(results[i].Err.Error(), "plain failure") {
				t.Errorf("error not propagated: %v", results[i].Err)
			}
		default:
			if !results[i].Ok() {
				t.Errorf("healthy run %d failed: %v", i, results[i].Err)
			}
			if got := results[i].Metrics[analysis.MetricPropMedianMs]; got != float64(results[i].Run.Seed) {
				t.Errorf("run %d metrics = %v", i, results[i].Metrics)
			}
		}
	}
	agg := Aggregate(results)
	if agg.Failed != 2 {
		t.Errorf("aggregate failed = %d, want 2", agg.Failed)
	}
	if len(agg.Errors) != 2 {
		t.Errorf("aggregate errors = %v", agg.Errors)
	}
}

// TestRunnerProgressReporting: done counts increase monotonically to
// the total, and callbacks are serialized (the mutation of seen below
// would trip -race otherwise).
func TestRunnerProgressReporting(t *testing.T) {
	var calls []int
	runner := &Runner{
		Workers: 4,
		runFn: func(_ context.Context, cfg core.Config) (*core.Results, error) {
			return &core.Results{
				Propagation: &analysis.PropagationResult{Blocks: 1, MedianMs: 1},
			}, nil
		},
		OnResult: func(done, total int, r *RunResult) {
			if total != 6 {
				t.Errorf("total = %d", total)
			}
			calls = append(calls, done)
		},
	}
	m := &Matrix{Base: testConfig(), Seeds: Seeds(1, 6)}
	if _, err := runner.Run(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 6 {
		t.Fatalf("callbacks = %d", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("done sequence = %v", calls)
		}
	}
}

// TestSweepConvenience exercises the one-call wrapper end to end on a
// tiny real matrix.
func TestSweepConvenience(t *testing.T) {
	base := testConfig()
	// Enough virtual time that the headline metrics are guaranteed to
	// materialize regardless of the race-mode shrink above.
	base.Duration = 90 * time.Second
	m := &Matrix{Base: base, Seeds: Seeds(1, 2)}
	agg, results, err := Sweep(context.Background(), m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || agg.Runs != 2 || agg.Failed != 0 {
		t.Fatalf("agg = %+v", agg)
	}
	s := agg.Scenario("base")
	if s == nil {
		t.Fatal("base scenario missing")
	}
	if m := s.Metric(analysis.MetricPropMedianMs); m == nil || m.N != 2 || m.Mean <= 0 {
		t.Errorf("propagation summary = %+v", m)
	}
	if m := s.Metric(analysis.MetricForkMainShare); m == nil || m.Mean <= 0.5 {
		t.Errorf("fork main share = %+v", m)
	}
}

// TestRunnerDefaultsWorkers ensures a zero-value runner picks a sane
// worker count and still completes.
func TestRunnerDefaultsWorkers(t *testing.T) {
	runner := &Runner{
		runFn: func(_ context.Context, cfg core.Config) (*core.Results, error) {
			return &core.Results{
				Propagation: &analysis.PropagationResult{Blocks: 1, MedianMs: 1},
			}, nil
		},
	}
	m := &Matrix{Base: testConfig(), Seeds: Seeds(1, 3)}
	results, err := runner.Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if !results[i].Ok() {
			t.Fatalf("run %d: %v", i, results[i].Err)
		}
	}
	if DefaultWorkers() < 1 {
		t.Error("DefaultWorkers < 1")
	}
}

func TestRunnerResumesFromCompleted(t *testing.T) {
	stub := func(_ context.Context, cfg core.Config) (*core.Results, error) {
		return &core.Results{
			Propagation: &analysis.PropagationResult{Blocks: 1, MedianMs: float64(cfg.Seed)},
		}, nil
	}
	m := &Matrix{Base: testConfig(), Seeds: Seeds(1, 6)}

	// Reference: the full sweep, uninterrupted.
	full := &Runner{Workers: 2, runFn: stub}
	want, err := full.Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}

	// Resumed: runs 0, 2 and 3 completed before the "crash"; one failed
	// slot rides along and must be re-executed, not reused.
	completed := map[int]RunResult{
		0: want[0],
		2: want[2],
		3: want[3],
		4: {Run: want[4].Run, Err: errors.New("crashed mid-run")},
	}
	var reran []int
	var mu sync.Mutex
	resumed := &Runner{
		Workers:   2,
		Completed: completed,
		runFn: func(ctx context.Context, cfg core.Config) (*core.Results, error) {
			mu.Lock()
			reran = append(reran, int(cfg.Seed))
			mu.Unlock()
			return stub(ctx, cfg)
		},
		OnResult: func(done, total int, r *RunResult) {
			if total != 6 {
				t.Errorf("total = %d", total)
			}
		},
	}
	got, err := resumed.Run(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("results = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Run.Index != want[i].Run.Index || !metricsEqual(got[i].Metrics, want[i].Metrics) {
			t.Errorf("slot %d differs after resume", i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(reran) != 3 {
		t.Fatalf("re-executed %d runs (%v), want 3 (indices 1, 4, 5)", len(reran), reran)
	}
	for _, seed := range reran {
		if idx := seed - 1; idx != 1 && idx != 4 && idx != 5 {
			t.Errorf("re-executed preserved run with seed %d", seed)
		}
	}

	// Aggregates over restored and uninterrupted results match exactly.
	aggWant := Aggregate(want)
	aggGot := Aggregate(got)
	var bufW, bufG bytes.Buffer
	if err := aggWant.WriteJSON(&bufW); err != nil {
		t.Fatal(err)
	}
	if err := aggGot.WriteJSON(&bufG); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufW.Bytes(), bufG.Bytes()) {
		t.Error("aggregate JSON differs between resumed and uninterrupted sweep")
	}
}

// TestRunnerCancelStopsInFlightCampaign cancels a sweep while its one
// campaign, far too long to finish during the test, is simulating: the
// sweep must return promptly, with the slot reported like an
// undispatched run (Err wraps context.Canceled, no metrics) and never
// passed to OnResult.
func TestRunnerCancelStopsInFlightCampaign(t *testing.T) {
	cfg := testConfig()
	cfg.Duration = 30 * 24 * time.Hour
	m := &Matrix{Base: cfg, Seeds: Seeds(1, 1)}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	started := make(chan struct{})
	runner := &Runner{
		Workers: 1,
		runFn: func(ctx context.Context, cfg core.Config) (*core.Results, error) {
			close(started)
			return runCampaign(ctx, cfg)
		},
		OnResult: func(done, total int, r *RunResult) {
			t.Errorf("cancelled run reached OnResult: %+v", r.Err)
		},
	}
	type outcome struct {
		results []RunResult
		err     error
	}
	out := make(chan outcome, 1)
	go func() {
		results, err := runner.Run(ctx, m)
		out <- outcome{results, err}
	}()
	<-started
	time.Sleep(200 * time.Millisecond) // let the engine get under way
	cancel()

	select {
	case o := <-out:
		if !errors.Is(o.err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", o.err)
		}
		if len(o.results) != 1 {
			t.Fatalf("results = %d, want 1", len(o.results))
		}
		r := o.results[0]
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("slot err = %v, want context.Canceled", r.Err)
		}
		if r.Metrics != nil || r.Run.Seed != 1 {
			t.Errorf("cancelled slot = %+v, want seed 1 and no metrics", r)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("sweep still running 20s after cancel: the in-flight campaign was not stopped")
	}
}
