package serve

import (
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// Servers that still had the sharded engine pinned the resolved shard
// count into every stored job spec. These fixture stores are built the
// way such a server left them: a job killed mid-run after its first
// checkpoint, or one still queued, with the spec's shard count
// rewritten to what the older server stored.

const removedEngine = "sharded engine was removed"

// crashedStore runs spec on a fresh store and kills the server after
// the job's first checkpoint, leaving the job running on disk.
func crashedStore(t *testing.T, spec JobSpec) (dir, id string) {
	t.Helper()
	dir = t.TempDir()
	m := openManager(t, dir, Options{MaxJobs: 1})
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitJob(t, m, job.ID, time.Minute, func(j Job) bool { return j.Checkpoint != nil })
	m.Kill()
	return dir, job.ID
}

// pinShards rewrites a stored job's spec to the given shard count.
func pinShards(t *testing.T, dir, id string, shards int) {
	t.Helper()
	path := filepath.Join(dir, "jobs", id, "job.json")
	var j Job
	if err := readJSON(path, &j); err != nil {
		t.Fatal(err)
	}
	j.Spec.Shards = shards
	if err := writeJSON(path, &j); err != nil {
		t.Fatal(err)
	}
}

// storeQueued adds a queued job with the given spec to the store.
func storeQueued(t *testing.T, dir, id string, spec JobSpec) {
	t.Helper()
	st, err := newStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.saveJob(&Job{ID: id, Spec: spec, State: StateQueued, Created: time.Now()}); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPSubmitRejectsShards: a POST that names more than one shard is
// a 400 whose reason names the removed engine; one shard is still the
// one engine and is accepted.
func TestHTTPSubmitRejectsShards(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, body := range []string{
		`{"kind":"campaign","shards":2}`,
		`{"kind":"sweep","shards":8,"sweep":{"seeds":2}}`,
	} {
		status, msg := postRaw(t, ts, body)
		if status != http.StatusBadRequest || !strings.Contains(msg, removedEngine) {
			t.Errorf("%s: status %d, error %q; want 400 naming the removed engine", body, status, msg)
		}
	}
	spec := quickSpec()
	spec.Shards = 1
	postJob(t, ts, spec)
}

// TestRestoreShardedStoreFails: jobs an older server pinned to several
// shards — one crashed mid-run with a checkpoint, one still queued —
// restore as failed jobs that say why, and the server keeps serving.
func TestRestoreShardedStoreFails(t *testing.T) {
	dir, running := crashedStore(t, slowSpec())
	pinShards(t, dir, running, 4)
	queuedSpec := quickSpec()
	queuedSpec.Shards = 2
	storeQueued(t, dir, "j000002", queuedSpec)

	m := openManager(t, dir, Options{MaxJobs: 1})
	defer m.Close()
	for _, id := range []string{running, "j000002"} {
		j := waitJob(t, m, id, time.Minute, func(j Job) bool { return terminal(j.State) })
		if j.State != StateFailed || !strings.Contains(j.Error, removedEngine) {
			t.Errorf("job %s: state %s, error %q; want failed naming the removed engine", id, j.State, j.Error)
		}
	}
	job, err := m.Submit(quickSpec())
	if err != nil {
		t.Fatalf("Submit after restore: %v", err)
	}
	waitJob(t, m, job.ID, 2*time.Minute, isState(StateDone))
}

// TestRestorePinnedSerialStoreResumes: jobs pinned to zero or one shard
// resume unchanged. A crashed run pinned to one shard resumes from its
// checkpoint and reproduces the uninterrupted run's fingerprints, and a
// queued job pinned to zero runs to completion.
func TestRestorePinnedSerialStoreResumes(t *testing.T) {
	spec := slowSpec()
	ref := openManager(t, t.TempDir(), Options{MaxJobs: 1})
	refJob, err := ref.Submit(spec)
	if err != nil {
		t.Fatalf("Submit(ref): %v", err)
	}
	refFinal := waitJob(t, ref, refJob.ID, 5*time.Minute, isState(StateDone))
	ref.Close()

	dir, running := crashedStore(t, spec)
	pinShards(t, dir, running, 1)
	storeQueued(t, dir, "j000002", quickSpec())

	m := openManager(t, dir, Options{MaxJobs: 1})
	defer m.Close()
	final := waitJob(t, m, running, 5*time.Minute, func(j Job) bool { return terminal(j.State) })
	if final.State != StateDone || final.Resumed != 1 || final.Spec.Shards != 1 {
		t.Fatalf("pinned job: state %s (%s), resumed %d, shards %d; want done, resumed once, still pinned to 1",
			final.State, final.Error, final.Resumed, final.Spec.Shards)
	}
	if final.Fingerprints == nil || refFinal.Fingerprints == nil || *final.Fingerprints != *refFinal.Fingerprints {
		t.Errorf("resumed fingerprints %+v, uninterrupted %+v", final.Fingerprints, refFinal.Fingerprints)
	}
	waitJob(t, m, "j000002", 2*time.Minute, isState(StateDone))
}
