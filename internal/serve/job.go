// Package serve implements the campaign server: a long-running daemon
// that accepts campaign and sweep jobs over HTTP/JSON, multiplexes
// them over a bounded worker pool, streams live progress, and survives
// being killed — in-flight campaigns checkpoint at simulation barriers
// and resume from the last checkpoint on restart (verified replay, see
// internal/core RunOptions.Resume), while sweeps resume at completed-
// run granularity.
//
// The package splits into the job model (this file), the on-disk store
// (store.go), the manager owning the worker pool and job lifecycle
// (manager.go), and the HTTP layer (server.go). The HTTP layer holds
// no state of its own: every handler is a thin translation onto the
// manager, so the lifecycle is fully testable without a socket.
package serve

import (
	"fmt"
	"time"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/core"
	"ethmeasure/internal/logs"
	"ethmeasure/internal/sweep"
)

// Job states. A job moves queued → running → done/failed/cancelled; a
// server restart moves interrupted running jobs back to queued (with
// their checkpoint, so the re-run resumes rather than restarts).
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// terminal reports whether a job state is final.
func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

// JobSpec is the client-submitted description of one job — the body of
// POST /v1/jobs. All fields beyond Kind are optional; durations use Go
// syntax ("30m", "2h"). Normalize pins the checkpoint interval into
// the spec at submit time, so a job resumed on restart replays under
// identical parameters.
type JobSpec struct {
	// Kind selects the job type: "campaign" (one run) or "sweep" (a
	// run matrix with aggregation).
	Kind string `json:"kind"`
	// Preset is the base configuration: "quick" (default), "default"
	// or "paper".
	Preset string `json:"preset,omitempty"`
	// Seed overrides the preset's RNG seed (sweeps: the base seed).
	Seed int64 `json:"seed,omitempty"`
	// Duration overrides the virtual campaign length.
	Duration string `json:"duration,omitempty"`
	// Nodes overrides the regular node count.
	Nodes int `json:"nodes,omitempty"`
	// NoTx disables the transaction workload.
	NoTx bool `json:"no_tx,omitempty"`
	// Shards is read only to reject it: older servers pinned the
	// event-engine shard count here, and the sharded engine is gone.
	// 0 and 1 (the one engine) are accepted; a spec naming more shards
	// fails, whether submitted or restored from the store.
	Shards int `json:"shards,omitempty"`
	// Protocol is a consensus spec ("ethereum", "bitcoin",
	// "ghost-inclusive:depth=10"). Empty means the default protocol.
	Protocol string `json:"protocol,omitempty"`
	// Scenarios are scenario specs composed into the run
	// ("churn:interval=90s", "partition:a=EA,start=5m,dur=10m").
	Scenarios []string `json:"scenarios,omitempty"`
	// CheckpointInterval is the virtual-time spacing of campaign
	// checkpoints. Zero lets the server pin a default derived from the
	// duration at submit time. Ignored for sweeps (they checkpoint at
	// run granularity).
	CheckpointInterval string `json:"checkpoint_interval,omitempty"`
	// Sweep configures the run matrix; required when Kind is "sweep",
	// rejected otherwise.
	Sweep *SweepSpec `json:"sweep,omitempty"`
}

// SweepSpec is the matrix part of a sweep job: the base configuration
// above, swept across seeds and the listed axes.
type SweepSpec struct {
	// Seeds is the per-variant repetition count (≥ 1). Zero means 1.
	Seeds int `json:"seeds,omitempty"`
	// Nodes sweeps the regular node count.
	Nodes []int `json:"nodes,omitempty"`
	// Protocols sweeps consensus specs.
	Protocols []string `json:"protocols,omitempty"`
	// Scenarios sweeps scenario specs (one variant per entry, plus the
	// implicit base variant is NOT added — list "base" axes yourself
	// via an empty-scenario run if needed).
	Scenarios []string `json:"scenarios,omitempty"`
}

// SweepRun is the streamed per-run record of a sweep job: pushed to
// watchers as each run completes — the incremental metrics feed.
type SweepRun struct {
	Index    int                 `json:"index"`
	Scenario string              `json:"scenario"`
	Seed     int64               `json:"seed"`
	Error    string              `json:"error,omitempty"`
	Metrics  analysis.KeyMetrics `json:"metrics,omitempty"`
	Wall     time.Duration       `json:"wall,omitempty"`
	Restored bool                `json:"restored,omitempty"`
}

// Fingerprints are a finished campaign's identity: the running hash
// over every measurement record and the hash of the final block
// registry (see internal/logs).
type Fingerprints struct {
	Record string `json:"record"`
	Chain  string `json:"chain"`
}

// Job is one submitted job's full visible state: returned by the
// status endpoint and streamed (as whole snapshots) by the stream
// endpoint. The manager mutates it under lock and hands out copies.
type Job struct {
	ID      string    `json:"id"`
	Spec    JobSpec   `json:"spec"`
	State   string    `json:"state"`
	Error   string    `json:"error,omitempty"`
	Created time.Time `json:"created"`
	// Started and Ended are nil until the transition happens.
	Started *time.Time `json:"started,omitempty"`
	Ended   *time.Time `json:"ended,omitempty"`
	// Resumed counts how many times the job was restored from a
	// checkpoint after a server restart or drain.
	Resumed int `json:"resumed,omitempty"`

	// Progress is the latest live snapshot of a running campaign (or
	// of a sweep, where SimTime/Duration are run counts scaled into
	// the virtual horizon).
	Progress *core.Progress `json:"progress,omitempty"`
	// Checkpoint is the latest campaign checkpoint.
	Checkpoint *logs.Checkpoint `json:"checkpoint,omitempty"`

	// Metrics are a finished campaign's headline scalars.
	Metrics analysis.KeyMetrics `json:"metrics,omitempty"`
	// Fingerprints identify a finished campaign's full record stream
	// and final chain — the values the kill-and-restore contract is
	// verified against (a resumed job must reproduce them exactly).
	Fingerprints *Fingerprints `json:"fingerprints,omitempty"`
	// SweepRuns accumulate as a sweep's runs finish (matrix expansion
	// order is not guaranteed; Index identifies the run).
	SweepRuns []SweepRun `json:"sweep_runs,omitempty"`
	// Aggregate is a finished sweep's cross-run aggregation.
	Aggregate *sweep.AggregateResult `json:"aggregate,omitempty"`
}

// Normalize validates the spec against the shared catalogs and pins
// every machine- or time-dependent default into it, mutating it in
// place. After Normalize, the spec is a complete, portable description:
// building it on any replica of this server yields the identical
// simulation, which is what checkpoint resume relies on.
func (s *JobSpec) Normalize() error {
	switch s.Kind {
	case "campaign":
		if s.Sweep != nil {
			return fmt.Errorf("serve: campaign job must not carry a sweep block")
		}
	case "sweep":
		if s.Sweep == nil {
			s.Sweep = &SweepSpec{}
		}
		if s.Sweep.Seeds < 0 {
			return fmt.Errorf("serve: sweep.seeds must be >= 0")
		}
		if s.Sweep.Seeds == 0 {
			s.Sweep.Seeds = 1
		}
	case "":
		return fmt.Errorf("serve: job kind required (campaign or sweep)")
	default:
		return fmt.Errorf("serve: unknown job kind %q (campaign or sweep)", s.Kind)
	}

	cfg, err := s.Config()
	if err != nil {
		return err
	}
	// Expand the sweep matrix up front, so a bad axis value (an unknown
	// protocol or scenario, nodes -1, nodes 20 twice) is a 400 at the
	// API instead of a failed job.
	if s.Kind == "sweep" {
		m, err := s.matrix()
		if err != nil {
			return err
		}
		if _, err := m.Runs(); err != nil {
			return err
		}
	}
	// Pin the checkpoint interval: it determines where the
	// verification barriers sit on the timeline.
	if s.Kind == "campaign" && s.CheckpointInterval == "" {
		s.CheckpointInterval = defaultCheckpointInterval(cfg.Duration).String()
	}
	if s.CheckpointInterval != "" {
		d, err := time.ParseDuration(s.CheckpointInterval)
		if err != nil {
			return fmt.Errorf("serve: checkpoint_interval: %w", err)
		}
		if d <= 0 || d > cfg.Duration {
			return fmt.Errorf("serve: checkpoint_interval %v outside (0, %v]", d, cfg.Duration)
		}
	}
	// Re-derive the config with the pinned values to surface any
	// remaining validation error at submit time.
	if _, err := s.Config(); err != nil {
		return err
	}
	return nil
}

// defaultCheckpointInterval spaces ~8 checkpoints across the run,
// clamped to at least a virtual second.
func defaultCheckpointInterval(duration time.Duration) time.Duration {
	iv := duration / 8
	if iv < time.Second {
		iv = time.Second
	}
	return iv
}

// checkpointInterval returns the pinned interval (Normalize guarantees
// it parses).
func (s *JobSpec) checkpointInterval() time.Duration {
	d, _ := time.ParseDuration(s.CheckpointInterval)
	return d
}

// Config builds the campaign configuration (sweeps: the matrix base)
// through core.Configure, the override path the CLIs share. An omitted
// preset is "quick" and an omitted seed keeps the preset's.
func (s *JobSpec) Config() (core.Config, error) {
	if s.Shards < 0 || s.Shards > 1 {
		return core.Config{}, fmt.Errorf("serve: shards = %d: the sharded engine was removed; jobs run on one engine (omit shards)", s.Shards)
	}
	preset := s.Preset
	if preset == "" {
		preset = "quick"
	}
	var duration time.Duration
	if s.Duration != "" {
		d, err := time.ParseDuration(s.Duration)
		if err != nil {
			return core.Config{}, fmt.Errorf("serve: duration: %w", err)
		}
		if d <= 0 {
			return core.Config{}, fmt.Errorf("serve: duration must be positive")
		}
		duration = d
	}
	cfg, err := core.Configure(preset, core.Overrides{
		Duration:  duration,
		Nodes:     s.Nodes,
		NoTx:      s.NoTx,
		Protocol:  s.Protocol,
		Scenarios: s.Scenarios,
	})
	if err != nil {
		return cfg, err
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	return cfg, nil
}

// maxSweepRuns caps the runs one sweep job expands to (seeds times the
// variants of every axis). The check runs before anything is sized by
// the request, so a huge seed count fails instead of allocating.
const maxSweepRuns = 10_000

// matrix expands a sweep job's spec into the run matrix.
func (s *JobSpec) matrix() (*sweep.Matrix, error) {
	tooBig := fmt.Errorf("serve: sweep must expand to at most %d runs (seeds × nodes × protocols × scenarios)", maxSweepRuns)
	runs := s.Sweep.Seeds
	if runs < 0 || runs > maxSweepRuns {
		return nil, tooBig
	}
	for _, n := range []int{len(s.Sweep.Nodes), len(s.Sweep.Protocols), len(s.Sweep.Scenarios)} {
		if n > 0 {
			if runs > maxSweepRuns/n {
				return nil, tooBig
			}
			runs *= n
		}
	}
	cfg, err := s.Config()
	if err != nil {
		return nil, err
	}
	m := &sweep.Matrix{Base: cfg, Seeds: sweep.Seeds(cfg.Seed, s.Sweep.Seeds)}
	if len(s.Sweep.Nodes) > 0 {
		m.Axes = append(m.Axes, sweep.Nodes(s.Sweep.Nodes...))
	}
	if len(s.Sweep.Protocols) > 0 {
		ax, err := sweep.Protocols(s.Sweep.Protocols...)
		if err != nil {
			return nil, err
		}
		m.Axes = append(m.Axes, ax)
	}
	if len(s.Sweep.Scenarios) > 0 {
		ax, err := sweep.Scenarios(s.Sweep.Scenarios...)
		if err != nil {
			return nil, err
		}
		m.Axes = append(m.Axes, ax)
	}
	return m, nil
}
