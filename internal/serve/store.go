package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/core"
	"ethmeasure/internal/logs"
	"ethmeasure/internal/sweep"
)

// store is the server's on-disk job state, one directory per job:
//
//	<dir>/jobs/<id>/job.json        — the Job snapshot
//	<dir>/jobs/<id>/checkpoint.json — latest campaign checkpoint
//	<dir>/jobs/<id>/runs.json       — completed sweep runs
//
// Everything is written atomically (temp file + rename), so a SIGKILL
// at any instant leaves each file either absent or complete — the
// invariant the kill-and-restore path depends on.
type store struct {
	dir string
}

func newStore(dir string) (*store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: data dir: %w", err)
	}
	return &store{dir: dir}, nil
}

func (st *store) jobDir(id string) string { return filepath.Join(st.dir, "jobs", id) }

// writeJSON atomically writes v as indented JSON to path.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: marshal %s: %w", filepath.Base(path), err)
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// saveJob persists the job snapshot.
func (st *store) saveJob(j *Job) error {
	dir := st.jobDir(j.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: job dir: %w", err)
	}
	return writeJSON(filepath.Join(dir, "job.json"), j)
}

// loadJobs reads every persisted job, sorted by ID (IDs are zero-padded
// sequence numbers, so lexical order is submission order). A job.json
// that cannot be read or decoded does not stop the others: its job is
// listed as failed with the reason, and its file is left as found.
func (st *store) loadJobs() ([]*Job, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "jobs"))
	if err != nil {
		return nil, err
	}
	var jobs []*Job
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		var j Job
		if err := readJSON(filepath.Join(st.jobDir(e.Name()), "job.json"), &j); err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // directory created but job.json never landed
			}
			j = Job{ID: e.Name(), State: StateFailed, Error: fmt.Sprintf("serve: load job %s: %v", e.Name(), err)}
		}
		jobs = append(jobs, &j)
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	return jobs, nil
}

// nextID returns the next zero-padded job ID after every persisted one.
func (st *store) nextID() (string, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "jobs"))
	if err != nil {
		return "", err
	}
	max := 0
	for _, e := range entries {
		if n, err := strconv.Atoi(strings.TrimPrefix(e.Name(), "j")); err == nil && n > max {
			max = n
		}
	}
	return fmt.Sprintf("j%06d", max+1), nil
}

// saveCheckpoint persists a campaign job's latest checkpoint.
func (st *store) saveCheckpoint(id string, ck logs.Checkpoint) error {
	path := filepath.Join(st.jobDir(id), "checkpoint.json")
	if err := writeJSON(path, ck); err != nil {
		return fmt.Errorf("serve: job %s: save checkpoint %s: %w", id, path, err)
	}
	return nil
}

// loadCheckpoint returns the job's last checkpoint, or nil when none
// was ever written.
func (st *store) loadCheckpoint(id string) (*logs.Checkpoint, error) {
	path := filepath.Join(st.jobDir(id), "checkpoint.json")
	var ck logs.Checkpoint
	if err := readJSON(path, &ck); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("serve: job %s: load checkpoint %s: %w", id, path, err)
	}
	return &ck, nil
}

// persistedRun is the resumable essence of one completed sweep run:
// enough to fill its result slot and feed aggregation without
// re-executing the campaign.
type persistedRun struct {
	Index   int                 `json:"index"`
	Metrics analysis.KeyMetrics `json:"metrics"`
	Stats   core.RunStats       `json:"stats"`
}

// saveRuns persists a sweep job's completed runs.
func (st *store) saveRuns(id string, runs []persistedRun) error {
	return writeJSON(filepath.Join(st.jobDir(id), "runs.json"), runs)
}

// loadRuns returns a sweep job's completed runs as the Runner's
// Completed map, or nil when none were persisted.
func (st *store) loadRuns(id string) (map[int]sweep.RunResult, error) {
	var runs []persistedRun
	if err := readJSON(filepath.Join(st.jobDir(id), "runs.json"), &runs); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	completed := make(map[int]sweep.RunResult, len(runs))
	for _, r := range runs {
		completed[r.Index] = sweep.RunResult{
			Run:     sweep.Run{Index: r.Index},
			Metrics: r.Metrics,
			Stats:   r.Stats,
		}
	}
	return completed, nil
}
