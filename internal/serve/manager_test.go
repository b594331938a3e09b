package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// quickSpec is a campaign that finishes in well under a second — the
// workhorse for lifecycle tests that just need jobs to complete.
func quickSpec() JobSpec {
	return JobSpec{
		Kind:               "campaign",
		Preset:             "quick",
		Duration:           "8m",
		Nodes:              40,
		NoTx:               true,
		CheckpointInterval: "1m",
	}
}

// slowSpec is a campaign that runs long enough (roughly a second of
// wall clock) that the kill/drain tests can reliably interrupt it after
// an early checkpoint but far from completion.
func slowSpec() JobSpec {
	return JobSpec{
		Kind:               "campaign",
		Preset:             "quick",
		Duration:           "2h",
		Nodes:              60,
		NoTx:               true,
		CheckpointInterval: "5m",
	}
}

// waitJob polls a job via the watch channel until cond holds or the
// deadline passes, returning the last snapshot.
func waitJob(t *testing.T, m *Manager, id string, timeout time.Duration, cond func(Job) bool) Job {
	t.Helper()
	wake, stop, err := m.Watch(id)
	if err != nil {
		t.Fatalf("Watch(%s): %v", id, err)
	}
	defer stop()
	deadline := time.After(timeout)
	for {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if cond(j) {
			return j
		}
		if terminal(j.State) {
			t.Fatalf("job %s reached %s (error %q) before condition", id, j.State, j.Error)
		}
		select {
		case <-wake:
		case <-deadline:
			t.Fatalf("job %s: condition not met within %v (state %s)", id, timeout, j.State)
		}
	}
}

func isState(state string) func(Job) bool {
	return func(j Job) bool { return j.State == state }
}

func openManager(t *testing.T, dir string, opts Options) *Manager {
	t.Helper()
	opts.Dir = dir
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	m, err := Open(opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return m
}

func TestCampaignJobLifecycle(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{MaxJobs: 1})
	defer m.Close()

	job, err := m.Submit(quickSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if job.State != StateQueued {
		t.Errorf("initial state = %s", job.State)
	}
	// Normalize kept the pinned checkpoint interval.
	if job.Spec.CheckpointInterval != "1m" {
		t.Errorf("pinned spec = %+v", job.Spec)
	}

	final := waitJob(t, m, job.ID, 2*time.Minute, isState(StateDone))
	if len(final.Metrics) == 0 {
		t.Error("done job has no metrics")
	}
	if final.Fingerprints == nil || final.Fingerprints.Record == "" || final.Fingerprints.Chain == "" {
		t.Errorf("done job has no fingerprints: %+v", final.Fingerprints)
	}
	if final.Checkpoint == nil {
		t.Error("done job never checkpointed")
	}
	if final.Progress == nil || final.Progress.SimTime != final.Progress.Duration {
		t.Errorf("final progress = %+v", final.Progress)
	}
	if final.Started == nil || final.Ended == nil {
		t.Error("missing started/ended timestamps")
	}
}

// TestSubCampaignSecondDefaultsCheckpoint: a campaign shorter than a
// virtual second with no checkpoint_interval normalises, its default
// interval pinned to the whole run instead of a second past its end,
// and simulates to its end, checkpointing there. No block is mined that
// soon, and the job still completes: the analysis leaves out what needs
// blocks.
func TestSubCampaignSecondDefaultsCheckpoint(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{MaxJobs: 1})
	defer m.Close()

	for _, d := range []string{"1ns", "500ms"} {
		job, err := m.Submit(JobSpec{Kind: "campaign", Duration: d, Nodes: 40, NoTx: true})
		if err != nil {
			t.Fatalf("duration %s: Submit: %v", d, err)
		}
		if job.Spec.CheckpointInterval != d {
			t.Errorf("duration %s: pinned checkpoint_interval %q, want the run's length", d, job.Spec.CheckpointInterval)
		}
		final := waitJob(t, m, job.ID, 2*time.Minute, func(j Job) bool { return j.Ended != nil })
		if final.Progress == nil || final.Progress.SimTime != final.Progress.Duration {
			t.Errorf("duration %s: final progress %+v, want the whole run", d, final.Progress)
		}
		if final.Checkpoint == nil {
			t.Errorf("duration %s: no checkpoint at the run's end", d)
		}
		if final.State != StateDone {
			t.Errorf("duration %s: job ended %s (%s), want %s", d, final.State, final.Error, StateDone)
		}
	}
}

// TestThrottledCampaignEndsAndServerRuns submits a campaign whose
// scenario throttles a region to a vanishing bandwidth, then a normal
// one to the same single slot: the first must end without taking the
// server down, and the second must still run to done.
func TestThrottledCampaignEndsAndServerRuns(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{MaxJobs: 1})
	defer m.Close()

	throttled, err := m.Submit(JobSpec{
		Kind:      "campaign",
		Duration:  "2m",
		Nodes:     40,
		Scenarios: []string{"bandwidth:regions=EA,factor=1e-300"},
	})
	if err != nil {
		t.Fatalf("Submit throttled: %v", err)
	}
	next, err := m.Submit(quickSpec())
	if err != nil {
		t.Fatalf("Submit next: %v", err)
	}
	end := waitJob(t, m, throttled.ID, 2*time.Minute, func(j Job) bool { return terminal(j.State) })
	if end.State != StateDone && end.State != StateFailed {
		t.Errorf("throttled job ended %s", end.State)
	}
	waitJob(t, m, next.ID, 2*time.Minute, isState(StateDone))
}

func TestOversubscribedPoolQueues(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three multi-second campaigns; covered by the CI race job")
	}
	m := openManager(t, t.TempDir(), Options{MaxJobs: 1})
	defer m.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		job, err := m.Submit(slowSpec())
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids = append(ids, job.ID)
	}

	// With one slot, at most one job runs at any time; observe while
	// the first is still in flight.
	waitJob(t, m, ids[0], time.Minute, isState(StateRunning))
	running := 0
	for _, j := range m.List() {
		if j.State == StateRunning {
			running++
		}
	}
	if running != 1 {
		t.Errorf("%d jobs running concurrently with MaxJobs=1", running)
	}

	for _, id := range ids {
		waitJob(t, m, id, 5*time.Minute, isState(StateDone))
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{MaxJobs: 1})
	defer m.Close()

	long := quickSpec()
	long.Duration = "4h" // would run for minutes; cancellation cuts it short
	running, err := m.Submit(long)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	queued, err := m.Submit(quickSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	// Cancel the queued job: immediate transition.
	j, err := m.Cancel(queued.ID)
	if err != nil {
		t.Fatalf("Cancel(queued): %v", err)
	}
	if j.State != StateCancelled {
		t.Errorf("queued job after cancel = %s", j.State)
	}

	// Cancel the running job: transitions when the engine stops.
	waitJob(t, m, running.ID, time.Minute, isState(StateRunning))
	if _, err := m.Cancel(running.ID); err != nil {
		t.Fatalf("Cancel(running): %v", err)
	}
	j = waitJob(t, m, running.ID, time.Minute, func(j Job) bool { return terminal(j.State) })
	if j.State != StateCancelled {
		t.Errorf("running job after cancel = %s (error %q)", j.State, j.Error)
	}

	// Cancelling a finished job is a conflict.
	if _, err := m.Cancel(running.ID); err == nil {
		t.Error("Cancel on terminal job succeeded")
	}
}

func TestKillAndRestoreCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three multi-second campaigns; covered by the CI race job")
	}
	spec := slowSpec()

	// Reference: the same job on an uninterrupted server.
	refDir := t.TempDir()
	ref := openManager(t, refDir, Options{MaxJobs: 1})
	refJob, err := ref.Submit(spec)
	if err != nil {
		t.Fatalf("Submit(ref): %v", err)
	}
	refFinal := waitJob(t, ref, refJob.ID, 5*time.Minute, isState(StateDone))
	ref.Close()

	// Victim: kill the server after the first checkpoint lands.
	dir := t.TempDir()
	m := openManager(t, dir, Options{MaxJobs: 1})
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitJob(t, m, job.ID, time.Minute, func(j Job) bool { return j.Checkpoint != nil })
	m.Kill()

	// The store must look crashed: job.json still says running.
	var onDisk Job
	if err := readJSON(filepath.Join(dir, "jobs", job.ID, "job.json"), &onDisk); err != nil {
		t.Fatalf("read crashed job.json: %v", err)
	}
	if onDisk.State != StateRunning {
		t.Fatalf("crashed store state = %s, want running", onDisk.State)
	}

	// Restart: the job requeues, resumes from its checkpoint, and must
	// reproduce the uninterrupted run's fingerprints bit for bit.
	m2 := openManager(t, dir, Options{MaxJobs: 1})
	defer m2.Close()
	j, ok := m2.Get(job.ID)
	if !ok {
		t.Fatal("job lost across restart")
	}
	if j.Resumed != 1 {
		t.Errorf("Resumed = %d, want 1", j.Resumed)
	}
	final := waitJob(t, m2, job.ID, 5*time.Minute, isState(StateDone))
	if final.Fingerprints == nil || refFinal.Fingerprints == nil {
		t.Fatal("missing fingerprints")
	}
	if *final.Fingerprints != *refFinal.Fingerprints {
		t.Errorf("restored fingerprints %+v != uninterrupted %+v",
			*final.Fingerprints, *refFinal.Fingerprints)
	}
}

func TestKillAndRestoreSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ~18 sweep campaigns; covered by the CI race job")
	}
	// Each run costs a few hundred milliseconds, so with one worker the
	// victim is reliably killed with later runs still pending.
	spec := JobSpec{
		Kind:     "sweep",
		Preset:   "quick",
		Duration: "30m",
		Nodes:    50,
		NoTx:     true,
		Sweep:    &SweepSpec{Seeds: 6},
	}

	refDir := t.TempDir()
	ref := openManager(t, refDir, Options{MaxJobs: 1, SweepWorkers: 2})
	refJob, err := ref.Submit(spec)
	if err != nil {
		t.Fatalf("Submit(ref): %v", err)
	}
	refFinal := waitJob(t, ref, refJob.ID, 3*time.Minute, isState(StateDone))
	ref.Close()

	dir := t.TempDir()
	m := openManager(t, dir, Options{MaxJobs: 1, SweepWorkers: 1})
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Kill once at least one run has completed and been persisted.
	waitJob(t, m, job.ID, 2*time.Minute, func(j Job) bool { return len(j.SweepRuns) >= 1 })
	m.Kill()

	m2 := openManager(t, dir, Options{MaxJobs: 1, SweepWorkers: 2})
	defer m2.Close()
	final := waitJob(t, m2, job.ID, 3*time.Minute, isState(StateDone))
	if final.Resumed != 1 {
		t.Errorf("Resumed = %d, want 1", final.Resumed)
	}
	if len(final.SweepRuns) != 6 {
		t.Fatalf("sweep runs = %d, want 6", len(final.SweepRuns))
	}
	restored := 0
	for _, r := range final.SweepRuns {
		if r.Restored {
			restored++
		}
	}
	if restored == 0 {
		t.Error("no runs restored from the persisted results")
	}

	// The aggregate over restored + re-executed runs must match the
	// uninterrupted server's byte for byte.
	got, err := json.Marshal(final.Aggregate)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(refFinal.Aggregate)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("restored sweep aggregate differs from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
}

func TestDrainRequeuesRunningJobs(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, Options{MaxJobs: 1})

	long := quickSpec()
	long.Duration = "2h"
	long.CheckpointInterval = "1m"
	job, err := m.Submit(long)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitJob(t, m, job.ID, time.Minute, func(j Job) bool { return j.Checkpoint != nil })
	m.Close() // graceful drain: stop + requeue

	var onDisk Job
	if err := readJSON(filepath.Join(dir, "jobs", job.ID, "job.json"), &onDisk); err != nil {
		t.Fatalf("read drained job.json: %v", err)
	}
	if onDisk.State != StateQueued || onDisk.Resumed != 1 {
		t.Errorf("drained job = state %s, resumed %d; want queued, 1", onDisk.State, onDisk.Resumed)
	}

	// Submitting into a draining/closed manager fails.
	if _, err := m.Submit(quickSpec()); err == nil {
		t.Error("Submit after Close succeeded")
	}
}

func TestSubmitValidation(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{MaxJobs: 1})
	defer m.Close()

	cases := []struct {
		name string
		spec JobSpec
		frag string
	}{
		{"missing kind", JobSpec{}, "kind required"},
		{"bad kind", JobSpec{Kind: "banana"}, "unknown job kind"},
		{"campaign with sweep block", JobSpec{Kind: "campaign", Sweep: &SweepSpec{}}, "must not carry"},
		{"bad preset", JobSpec{Kind: "campaign", Preset: "huge"}, "unknown preset"},
		{"bad duration", JobSpec{Kind: "campaign", Duration: "fast"}, "duration"},
		{"negative nodes", JobSpec{Kind: "campaign", Nodes: -5}, "nodes"},
		{"bad protocol", JobSpec{Kind: "campaign", Protocol: "pow2"}, "unknown protocol"},
		{"bad protocol param", JobSpec{Kind: "campaign", Protocol: "ethereum:gravity=9"}, "unknown parameter"},
		{"bad scenario", JobSpec{Kind: "campaign", Scenarios: []string{"mayhem"}}, "unknown scenario"},
		{"bad sweep protocol", JobSpec{Kind: "sweep", Sweep: &SweepSpec{Protocols: []string{"pow2"}}}, "unknown protocol"},
		{"negative sweep nodes", JobSpec{Kind: "sweep", Sweep: &SweepSpec{Nodes: []int{-1}}}, "nodes"},
		{"repeated sweep nodes", JobSpec{Kind: "sweep", Sweep: &SweepSpec{Nodes: []int{20, 20}}}, "repeats variant"},
		{"huge seed count", JobSpec{Kind: "sweep", Sweep: &SweepSpec{Seeds: 1 << 62}}, "at most"},
		{"seeds times variants over the cap", JobSpec{Kind: "sweep", Sweep: &SweepSpec{Seeds: maxSweepRuns/2 + 1, Nodes: []int{20, 30}}}, "at most"},
		{"bad checkpoint interval", JobSpec{Kind: "campaign", CheckpointInterval: "-5m"}, "checkpoint_interval"},
		{"nodes over the cap", JobSpec{Kind: "campaign", Nodes: maxNodes + 1}, "limit"},
		{"sweep nodes over the cap", JobSpec{Kind: "sweep", Sweep: &SweepSpec{Nodes: []int{40, maxNodes + 1}}}, "limit"},
	}
	for _, tc := range cases {
		if _, err := m.Submit(tc.spec); err == nil {
			t.Errorf("%s: Submit succeeded", tc.name)
		} else if !strings.Contains(err.Error(), tc.frag) {
			t.Errorf("%s: err = %v, want fragment %q", tc.name, err, tc.frag)
		}
	}
	if jobs := m.List(); len(jobs) != 0 {
		t.Errorf("%d jobs created by invalid submissions", len(jobs))
	}
}

// TestJobPanicFailsOnlyThatJob: a panic inside a job ends that job
// failed with the panic text and its stack; the worker that ran it
// goes on to run the next job to done.
func TestJobPanicFailsOnlyThatJob(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{MaxJobs: 1})
	defer m.Close()
	var calls atomic.Int32
	m.mu.Lock()
	m.run = func(ctx context.Context, js *jobState) error {
		if calls.Add(1) == 1 {
			panic("injected job fault")
		}
		return m.runJob(ctx, js)
	}
	m.mu.Unlock()

	bad, err := m.Submit(quickSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	good, err := m.Submit(quickSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	failed := waitJob(t, m, bad.ID, time.Minute, isState(StateFailed))
	for _, want := range []string{"panicked: injected job fault", "runRecovered"} {
		if !strings.Contains(failed.Error, want) {
			t.Errorf("failed job's error lacks %q:\n%s", want, failed.Error)
		}
	}
	waitJob(t, m, good.ID, 2*time.Minute, isState(StateDone))
}

// TestDamagedJobFileDoesNotStopServer: a truncated job.json beside a
// good queued job lets the server open; the damaged job is listed as
// failed with the reason, its file is left as found, its number is not
// reused, and the good job runs to done.
func TestDamagedJobFileDoesNotStopServer(t *testing.T) {
	dir := t.TempDir()
	spec := quickSpec()
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	storeQueued(t, dir, "j000001", spec)
	storeQueued(t, dir, "j000002", spec)
	damaged := filepath.Join(dir, "jobs", "j000002", "job.json")
	whole, err := os.ReadFile(damaged)
	if err != nil {
		t.Fatal(err)
	}
	truncated := whole[:len(whole)/2]
	if err := os.WriteFile(damaged, truncated, 0o644); err != nil {
		t.Fatal(err)
	}

	m := openManager(t, dir, Options{MaxJobs: 1})
	defer m.Close()
	waitJob(t, m, "j000001", 2*time.Minute, isState(StateDone))
	j, ok := m.Get("j000002")
	if !ok || j.State != StateFailed || !strings.Contains(j.Error, "load job j000002") {
		t.Fatalf("damaged job = %+v (listed %v), want failed naming the load error", j, ok)
	}
	if got, err := os.ReadFile(damaged); err != nil || !bytes.Equal(got, truncated) {
		t.Errorf("damaged job.json changed (err %v)", err)
	}
	next, err := m.Submit(quickSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if next.ID != "j000003" {
		t.Errorf("next job ID = %s, want j000003", next.ID)
	}
}
