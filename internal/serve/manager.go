package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"ethmeasure/internal/core"
	"ethmeasure/internal/logs"
	"ethmeasure/internal/sweep"
)

// Options configures a Manager.
type Options struct {
	// Dir is the data directory jobs persist under.
	Dir string
	// MaxJobs bounds how many jobs run concurrently; the rest queue.
	// <= 0 means 2.
	MaxJobs int
	// SweepWorkers is the per-sweep campaign concurrency (the sweep
	// runner's worker pool). <= 0 means GOMAXPROCS. Note the global
	// budget is MaxJobs × SweepWorkers campaigns: servers expecting
	// concurrent sweep jobs should divide capacity accordingly.
	SweepWorkers int
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// how a running job was asked to stop, recorded before cancelling its
// context so the worker can map the resulting error to the right final
// state.
const (
	stopNone  = ""
	stopUser  = "cancel" // DELETE /v1/jobs/{id}: job → cancelled
	stopDrain = "drain"  // Close: job → queued, resumes on next start
)

// jobState is the manager's mutable record of one job.
type jobState struct {
	job      Job
	cancel   context.CancelFunc // non-nil while running
	stop     string             // why cancel was invoked (stop* above)
	watchers map[chan struct{}]struct{}
}

// Manager owns the job table, the on-disk store and the worker pool.
// It is the whole campaign server minus HTTP: Submit/Get/Cancel/Watch
// are exactly the endpoint semantics, so tests drive the lifecycle
// directly and the HTTP layer stays a translation.
type Manager struct {
	st   *store
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond // signals workers: queue non-empty or closing
	jobs    map[string]*jobState
	order   []string // job IDs in submission order
	queue   []string // queued job IDs, FIFO
	closing bool
	killed  bool
	wg      sync.WaitGroup

	// run, when set, replaces runJob (tests inject failing jobs). Set
	// it before the first Submit; workers read it under mu.
	run func(context.Context, *jobState) error
}

// Open loads persisted jobs from opts.Dir and starts the worker pool.
// Jobs that were queued or running when the previous process died are
// requeued; previously running ones are marked resumed. A campaign
// replays from virtual time zero and is verified against its last
// checkpoint; a sweep reuses its completed runs.
func Open(opts Options) (*Manager, error) {
	st, err := newStore(opts.Dir)
	if err != nil {
		return nil, err
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 2
	}
	m := &Manager{
		st:   st,
		opts: opts,
		jobs: make(map[string]*jobState),
	}
	m.cond = sync.NewCond(&m.mu)

	jobs, err := st.loadJobs()
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		if j.State == StateRunning {
			// The previous process died mid-run: requeue; the worker
			// replays a campaign and verifies it against the persisted
			// checkpoint.
			j.State = StateQueued
			j.Resumed++
			j.Progress = nil
			if err := st.saveJob(j); err != nil {
				return nil, err
			}
		}
		js := &jobState{job: *j, watchers: make(map[chan struct{}]struct{})}
		m.jobs[j.ID] = js
		m.order = append(m.order, j.ID)
		if j.State == StateQueued {
			m.queue = append(m.queue, j.ID)
		}
	}

	// Log before the workers start: they take jobs off m.queue.
	m.logf("serve: opened %s: %d jobs loaded, %d queued", opts.Dir, len(jobs), len(m.queue))
	for i := 0; i < opts.MaxJobs; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

func (m *Manager) logf(format string, args ...any) {
	if m.opts.Logf != nil {
		m.opts.Logf(format, args...)
	}
}

// Submit validates and enqueues a job, returning its initial snapshot.
func (m *Manager) Submit(spec JobSpec) (Job, error) {
	if err := spec.Normalize(); err != nil {
		return Job{}, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closing {
		return Job{}, fmt.Errorf("serve: server is shutting down")
	}
	id, err := m.st.nextID()
	if err != nil {
		return Job{}, err
	}
	js := &jobState{
		job: Job{
			ID:      id,
			Spec:    spec,
			State:   StateQueued,
			Created: time.Now(),
		},
		watchers: make(map[chan struct{}]struct{}),
	}
	if err := m.st.saveJob(&js.job); err != nil {
		return Job{}, err
	}
	m.jobs[id] = js
	m.order = append(m.order, id)
	m.queue = append(m.queue, id)
	m.cond.Signal()
	m.logf("serve: job %s submitted (%s)", id, spec.Kind)
	return snapshot(js), nil
}

// Get returns a job's current snapshot.
func (m *Manager) Get(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	js, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return snapshot(js), true
}

// List returns every job in submission order.
func (m *Manager) List() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, snapshot(m.jobs[id]))
	}
	return out
}

// Cancel stops a queued or running job. Queued jobs transition
// immediately; running ones stop at the simulation's next safe point
// and transition when the worker observes the stop.
func (m *Manager) Cancel(id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	js, ok := m.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("serve: unknown job %s", id)
	}
	switch js.job.State {
	case StateQueued:
		js.job.State = StateCancelled
		now := time.Now()
		js.job.Ended = &now
		m.persistLocked(js)
		m.notifyLocked(js)
	case StateRunning:
		if js.stop == stopNone {
			js.stop = stopUser
			js.cancel()
		}
	default:
		return snapshot(js), fmt.Errorf("serve: job %s already %s", id, js.job.State)
	}
	return snapshot(js), nil
}

// Watch registers a wake channel for a job: it receives (capacity-1,
// coalesced) signals whenever the job's snapshot changes. Callers
// re-read the snapshot via Get on each wake and must call stop when
// done.
func (m *Manager) Watch(id string) (wake <-chan struct{}, stop func(), err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	js, ok := m.jobs[id]
	if !ok {
		return nil, nil, fmt.Errorf("serve: unknown job %s", id)
	}
	ch := make(chan struct{}, 1)
	js.watchers[ch] = struct{}{}
	return ch, func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		delete(js.watchers, ch)
	}, nil
}

// Close drains the server: running jobs are stopped at their next safe
// point and requeued (the next start replays a campaign from the start
// and verifies it against its last checkpoint), queued jobs stay
// queued, and the worker pool exits.
// The store is left exactly as a subsequent Open expects it.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closing = true
	for _, js := range m.jobs {
		if js.job.State == StateRunning && js.stop == stopNone {
			js.stop = stopDrain
			js.cancel()
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
	m.logf("serve: drained")
}

// Kill is the crash-test hook: it stops everything like Close but
// persists no state transitions, so the store looks exactly as if the
// process had been SIGKILLed mid-run. Only tests use it.
func (m *Manager) Kill() {
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closing = true
	m.killed = true
	for _, js := range m.jobs {
		if js.cancel != nil {
			js.cancel()
		}
	}
	m.cond.Broadcast()
	m.mu.Unlock()
	m.wg.Wait()
}

// snapshot copies a job for handing outside the lock. Pointer fields
// (Progress, Checkpoint) are replaced wholesale on update, never
// mutated, so sharing them is safe; the growing SweepRuns slice is
// cloned.
func snapshot(js *jobState) Job {
	j := js.job
	if len(j.SweepRuns) > 0 {
		j.SweepRuns = append([]SweepRun(nil), j.SweepRuns...)
	}
	return j
}

// persistLocked writes the job snapshot unless the manager is
// simulating a crash.
func (m *Manager) persistLocked(js *jobState) {
	if m.killed {
		return
	}
	if err := m.st.saveJob(&js.job); err != nil {
		m.logf("serve: persist job %s: %v", js.job.ID, err)
	}
}

// notifyLocked wakes every watcher (coalescing: a watcher that has not
// drained its previous wake gets nothing new, and re-reads anyway).
func (m *Manager) notifyLocked(js *jobState) {
	for ch := range js.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// worker is one slot of the job pool: claim the next queued job, run
// it to a final (or requeued) state, repeat until the manager closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	m.mu.Lock()
	for {
		for !m.closing && len(m.queue) == 0 {
			m.cond.Wait()
		}
		if m.closing {
			m.mu.Unlock()
			return
		}
		id := m.queue[0]
		m.queue = m.queue[1:]
		js := m.jobs[id]
		if js.job.State != StateQueued {
			continue // cancelled while waiting in the queue
		}
		ctx, cancel := context.WithCancel(context.Background())
		js.cancel = cancel
		js.stop = stopNone
		js.job.State = StateRunning
		if js.job.Started == nil {
			now := time.Now()
			js.job.Started = &now
		}
		if js.job.Spec.Kind == "sweep" {
			// OnResult re-reports restored runs, so rebuild from zero —
			// requeued jobs would otherwise double their entries.
			js.job.SweepRuns = nil
		}
		m.persistLocked(js)
		m.notifyLocked(js)
		run := m.runJob
		if m.run != nil {
			run = m.run
		}
		m.mu.Unlock()

		err := runRecovered(ctx, js, id, run)

		m.mu.Lock()
		cancel()
		js.cancel = nil
		m.finishLocked(js, err)
	}
}

// runRecovered runs one job outside the manager lock and turns a panic
// in it into the job's error, stack included, so a bug in one job fails
// that job and leaves the server and its other jobs running.
func runRecovered(ctx context.Context, js *jobState, id string, run func(context.Context, *jobState) error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: job %s panicked: %v\n%s", id, p, debug.Stack())
		}
	}()
	return run(ctx, js)
}

// finishLocked maps a finished run's error to the job's next state.
func (m *Manager) finishLocked(js *jobState, err error) {
	if m.killed {
		return // simulated crash: the store keeps the mid-run state
	}
	now := time.Now()
	switch {
	case err == nil:
		js.job.State = StateDone
		js.job.Ended = &now
		m.logf("serve: job %s done", js.job.ID)
	case js.stop == stopDrain:
		js.job.State = StateQueued
		js.job.Resumed++
		js.job.Progress = nil
		m.logf("serve: job %s requeued for resume", js.job.ID)
	case js.stop == stopUser || errors.Is(err, context.Canceled):
		js.job.State = StateCancelled
		js.job.Ended = &now
		m.logf("serve: job %s cancelled", js.job.ID)
	default:
		js.job.State = StateFailed
		js.job.Error = err.Error()
		js.job.Ended = &now
		m.logf("serve: job %s failed: %v", js.job.ID, err)
	}
	m.persistLocked(js)
	m.notifyLocked(js)
}

// runJob executes one job outside the manager lock.
func (m *Manager) runJob(ctx context.Context, js *jobState) error {
	m.mu.Lock()
	spec := js.job.Spec
	id := js.job.ID
	m.mu.Unlock()
	if spec.Kind == "sweep" {
		return m.runSweep(ctx, js, id, spec)
	}
	return m.runCampaign(ctx, js, id, spec)
}

// progressInterval spaces ~100 progress ticks across the run, clamped
// to at least a virtual second.
func progressInterval(duration time.Duration) time.Duration {
	iv := duration / 100
	if iv < time.Second {
		iv = time.Second
	}
	return iv
}

func (m *Manager) runCampaign(ctx context.Context, js *jobState, id string, spec JobSpec) error {
	cfg, err := spec.Config()
	if err != nil {
		return err
	}
	campaign, err := core.NewCampaign(cfg)
	if err != nil {
		return err
	}
	resume, err := m.st.loadCheckpoint(id)
	if err != nil {
		return err
	}
	if resume != nil {
		m.logf("serve: job %s replaying from the start, verified against its checkpoint at %v", id, time.Duration(resume.SimTimeNs))
	}
	opts := core.RunOptions{
		ProgressInterval: progressInterval(cfg.Duration),
		Progress: func(p core.Progress) {
			m.mu.Lock()
			js.job.Progress = &p
			m.notifyLocked(js)
			m.mu.Unlock()
		},
		CheckpointInterval: spec.checkpointInterval(),
		Checkpoint: func(ck logs.Checkpoint) {
			m.mu.Lock()
			defer m.mu.Unlock()
			if m.killed {
				return
			}
			if err := m.st.saveCheckpoint(id, ck); err != nil {
				m.logf("serve: job %s checkpoint: %v", id, err)
				return
			}
			js.job.Checkpoint = &ck
			m.notifyLocked(js)
		},
		Resume: resume,
	}
	res, err := campaign.RunContext(ctx, opts)
	if err != nil {
		return err
	}
	record, chain := campaign.Fingerprints()
	m.mu.Lock()
	js.job.Metrics = res.KeyMetrics()
	js.job.Fingerprints = &Fingerprints{Record: record, Chain: chain}
	m.mu.Unlock()
	return nil
}

func (m *Manager) runSweep(ctx context.Context, js *jobState, id string, spec JobSpec) error {
	matrix, err := spec.matrix()
	if err != nil {
		return err
	}
	completed, err := m.st.loadRuns(id)
	if err != nil {
		return err
	}
	if len(completed) > 0 {
		m.logf("serve: job %s resuming with %d completed runs", id, len(completed))
	}
	var persisted []persistedRun
	runner := &sweep.Runner{
		Workers:   m.opts.SweepWorkers,
		Completed: completed,
		OnResult: func(done, total int, r *sweep.RunResult) {
			_, restored := completed[r.Run.Index]
			sr := SweepRun{
				Index:    r.Run.Index,
				Scenario: r.Run.Scenario,
				Seed:     r.Run.Seed,
				Metrics:  r.Metrics,
				Wall:     r.Wall,
				Restored: restored,
			}
			if r.Err != nil {
				sr.Error = r.Err.Error()
			}
			m.mu.Lock()
			defer m.mu.Unlock()
			js.job.SweepRuns = append(js.job.SweepRuns, sr)
			js.job.Progress = &core.Progress{
				SimTime:  time.Duration(done),
				Duration: time.Duration(total),
			}
			if r.Ok() && !m.killed {
				persisted = append(persisted, persistedRun{
					Index:   r.Run.Index,
					Metrics: r.Metrics,
					Stats:   r.Stats,
				})
				if err := m.st.saveRuns(id, persisted); err != nil {
					m.logf("serve: job %s persist runs: %v", id, err)
				}
			}
			m.notifyLocked(js)
		},
	}
	results, err := runner.Run(ctx, matrix)
	if err != nil {
		return err
	}
	agg := sweep.Aggregate(results)
	m.mu.Lock()
	js.job.Aggregate = agg
	m.mu.Unlock()
	return nil
}
