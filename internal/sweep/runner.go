package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/core"
)

// RunResult is the outcome of one campaign within a sweep.
type RunResult struct {
	// Run identifies the campaign (index, scenario, seed, config).
	Run Run
	// Metrics are the run's headline scalars, extracted immediately so
	// the (much larger) dataset can be released between runs.
	Metrics analysis.KeyMetrics
	// Stats is the run's bookkeeping (events, blocks, wall time).
	Stats core.RunStats
	// Err is non-nil when the run failed, panicked (the panic is
	// captured, not propagated), or was skipped due to cancellation.
	Err error
	// Wall is the run's wall-clock cost (zero for skipped runs).
	Wall time.Duration
}

// Ok reports whether the run completed and produced results.
func (r *RunResult) Ok() bool { return r.Err == nil && r.Metrics != nil }

// Runner executes a matrix's campaigns on a worker pool. Each campaign
// owns a private engine, registry and record pipeline, so runs proceed
// fully independently; the runner adds no synchronization beyond
// handing out job indices and collecting results into per-index slots.
type Runner struct {
	// Workers is the concurrency level; <= 0 means GOMAXPROCS.
	Workers int
	// OnResult, when set, observes each finished run. Calls are
	// serialized by the runner and report monotonically increasing
	// done counts; execution order across workers is nondeterministic,
	// but the result slice's order never is. Runs restored from
	// Completed are reported through the same hook, before any live
	// run, in index order. Runs that cancellation skipped or cut short
	// are never reported.
	OnResult func(done, total int, r *RunResult)

	// Completed seeds result slots from a previous, interrupted sweep,
	// keyed by Run.Index (the matrix expansion position — stable
	// identity, since expansion is deterministic). A slot whose seeded
	// result is Ok() is not re-executed: its result is reused verbatim,
	// which is what makes sweep jobs resumable at run granularity.
	// Failed or skipped seeds are ignored and their runs re-execute.
	Completed map[int]RunResult

	// runFn executes one campaign under the sweep's context; tests
	// stub it to inject failures and panics. Nil means the real
	// build-and-run path.
	runFn func(context.Context, core.Config) (*core.Results, error)
}

// runCampaign is the production runFn: build the full system, run it
// under ctx, analyze.
func runCampaign(ctx context.Context, cfg core.Config) (*core.Results, error) {
	campaign, err := core.NewCampaign(cfg)
	if err != nil {
		return nil, err
	}
	return campaign.RunContext(ctx, core.RunOptions{})
}

// Run expands the matrix and executes every run, returning results in
// matrix expansion order regardless of scheduling. On cancellation
// in-flight campaigns stop at their next event, and Run returns the
// partial results together with the context's error. A run cut short
// by cancellation is reported like one never dispatched: its slot
// carries ctx.Err() and no metrics, and OnResult never sees it. A run
// that panics is isolated: its slot records the panic as an error and
// the remaining runs continue.
func (rn *Runner) Run(ctx context.Context, m *Matrix) ([]RunResult, error) {
	runs, err := m.Runs()
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}

	results := make([]RunResult, len(runs))
	executed := make([]bool, len(runs))
	done := 0
	// Restore previously completed runs before anything executes: their
	// slots are final, the hook sees them first (in index order), and
	// the feed below never dispatches them.
	for i := range runs {
		prev, ok := rn.Completed[runs[i].Index]
		if !ok || !prev.Ok() {
			continue
		}
		results[i] = prev
		results[i].Run = runs[i]
		executed[i] = true
		done++
		if rn.OnResult != nil {
			rn.OnResult(done, len(runs), &results[i])
		}
	}
	pending := len(runs) - done

	workers := rn.Workers
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > pending {
		workers = pending
	}

	jobs := make(chan int)
	var (
		wg sync.WaitGroup
		mu sync.Mutex // guards done + OnResult
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				rr, canceled := rn.execute(ctx, runs[i])
				if canceled {
					continue // reported below with the undispatched runs
				}
				results[i] = rr
				executed[i] = true
				mu.Lock()
				done++
				if rn.OnResult != nil {
					rn.OnResult(done, len(runs), &results[i])
				}
				mu.Unlock()
			}
		}()
	}

feed:
	for i := range runs {
		if executed[i] {
			continue // restored from Completed
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		// Fill in runs that never reached a worker or were cut short
		// so callers can tell a skipped slot from a failed one.
		for i := range results {
			if !executed[i] {
				results[i].Run = runs[i]
				results[i].Err = err
			}
		}
		return results, err
	}
	return results, nil
}

// execute runs one campaign, converting panics into errors so a bad
// scenario cannot take down the whole sweep. canceled reports a run
// that ctx stopped before it finished (or before it started).
func (rn *Runner) execute(ctx context.Context, run Run) (rr RunResult, canceled bool) {
	rr.Run = run
	if ctx.Err() != nil {
		return rr, true
	}
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			rr.Err = fmt.Errorf("sweep: run %d (%s, seed %d) panicked: %v\n%s",
				run.Index, run.Scenario, run.Seed, p, debug.Stack())
			rr.Metrics = nil
		}
		rr.Wall = time.Since(start)
	}()

	runFn := rn.runFn
	if runFn == nil {
		runFn = runCampaign
	}
	cfg := run.Config
	// Matrix expansion copies the base config into every run, so a
	// SpillPath would point all concurrent campaigns at one file;
	// sweeps never spill.
	cfg.SpillPath = ""
	res, err := runFn(ctx, cfg)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			return rr, true
		}
		rr.Err = fmt.Errorf("sweep: run %d (%s, seed %d): %w", run.Index, run.Scenario, run.Seed, err)
		return
	}
	rr.Metrics = res.KeyMetrics()
	rr.Stats = res.Stats
	return
}
