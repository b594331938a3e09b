package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"ethmeasure/internal/logs"
	"ethmeasure/internal/scenario"
	"ethmeasure/internal/sim"
)

// ErrResumeDiverged is returned (wrapped, with detail) by
// SimulateContext when a resumed campaign's deterministic replay does
// not pass through the state recorded in the resume checkpoint — the
// binary, configuration or seed changed between the original run and
// the restore, or determinism itself broke. A diverged resume stops
// immediately rather than silently publishing different results under
// the same job.
var ErrResumeDiverged = errors.New("core: resume diverged from checkpoint")

// Progress is a live snapshot of a running simulation, delivered to
// RunOptions.Progress at each progress tick and once more when the
// simulation completes.
type Progress struct {
	// SimTime is the current virtual time; Duration the configured
	// horizon, so SimTime/Duration is the fraction complete.
	SimTime  time.Duration `json:"sim_time"`
	Duration time.Duration `json:"duration"`
	// Events counts engine events executed so far.
	Events uint64 `json:"events"`
	// BlockRecords and TxRecords count measurement records emitted so
	// far; Blocks is the current block-registry size.
	BlockRecords uint64 `json:"block_records"`
	TxRecords    uint64 `json:"tx_records"`
	Blocks       int    `json:"blocks"`
}

// RunOptions configures RunContext and SimulateContext. The zero
// value runs the campaign bare: no instrumentation, no checkpoints.
//
// Determinism contract: instrumentation ticks execute on the
// simulation timeline but only read state, so enabling or disabling
// them never changes simulation outcomes. Checkpoint/resume is
// stricter — a resumed run must schedule the identical checkpoint tick
// chain as the original (same CheckpointInterval), so the verification
// barrier lands at the same position in the event order.
type RunOptions struct {
	// Progress, when non-nil, is called every ProgressInterval of
	// virtual time (and once at completion) with live counters. Called
	// on the simulation goroutine: keep it fast, and do not touch the
	// campaign from inside it.
	Progress func(Progress)
	// ProgressInterval is the virtual-time spacing of progress calls.
	// Defaults to one virtual minute.
	ProgressInterval time.Duration
	// Checkpoint, when non-nil, is called every CheckpointInterval of
	// virtual time with a verifiable barrier marker (see
	// logs.Checkpoint). Same calling convention as Progress.
	Checkpoint func(logs.Checkpoint)
	// CheckpointInterval is the virtual-time spacing of checkpoints.
	// Required when Checkpoint or Resume is set — it is part of the
	// resume contract, so there is no implicit default to drift.
	CheckpointInterval time.Duration
	// Resume verifies that this run deterministically replays through
	// the given checkpoint: at the checkpoint's virtual time the run's
	// fingerprints must match, or the run stops with
	// ErrResumeDiverged. Checkpoint ticks at or before the resume
	// point are suppressed (the caller already holds them).
	Resume *logs.Checkpoint
}

// RunContext is the full run of a campaign: SimulateContext, honouring
// ctx and the options' progress/checkpoint hooks, then Analyze.
// Cancelling ctx stops the simulation after the current event and
// returns an error wrapping ctx.Err(). Callers that time the two phases
// separately (perfbench, cmd/ethbench) call them directly.
func (c *Campaign) RunContext(ctx context.Context, opts RunOptions) (*Results, error) {
	if err := c.SimulateContext(ctx, opts); err != nil {
		return nil, err
	}
	return c.Analyze()
}

// runInstr is the per-run instrumentation state: the record
// fingerprinter of a checkpointed or resumed run, plus the divergence
// verdict of a resumed run. Record counts are the collector's.
type runInstr struct {
	c       *Campaign
	fp      *logs.RecordFingerprinter // nil unless checkpointing/resuming
	failure error                     // resume divergence, checked after the engine stops
}

// progress builds the live snapshot at the current virtual time.
func (ri *runInstr) progress() Progress {
	c := ri.c
	return Progress{
		SimTime:      c.engine.Now(),
		Duration:     c.cfg.Duration,
		Events:       c.engine.EventsRun(),
		BlockRecords: uint64(c.collector.BlockRecords()),
		TxRecords:    uint64(c.collector.TxRecords()),
		Blocks:       c.registry.Len(),
	}
}

// checkpoint builds the verifiable barrier marker at the current
// virtual time.
func (ri *runInstr) checkpoint() logs.Checkpoint {
	return logs.Checkpoint{
		SimTimeNs:         int64(ri.c.engine.Now()),
		BlockRecords:      uint64(ri.c.collector.BlockRecords()),
		TxRecords:         uint64(ri.c.collector.TxRecords()),
		Blocks:            ri.c.registry.Len(),
		RecordFingerprint: ri.fp.Sum(),
		ChainFingerprint:  logs.ChainFingerprint(ri.c.registry),
		WallTime:          time.Now(),
	}
}

// verify compares the replay's state at the resume barrier against the
// stored checkpoint, field by field, building a divergence error that
// names the first mismatch. Engine event counts are deliberately not
// compared: instrumentation ticks themselves execute as events, so the
// raw count is not portable across instrumentation configurations.
func (ri *runInstr) verify(want *logs.Checkpoint) error {
	got := ri.checkpoint()
	switch {
	case got.BlockRecords != want.BlockRecords:
		return fmt.Errorf("%w: at %v: %d block records, checkpoint has %d",
			ErrResumeDiverged, time.Duration(want.SimTimeNs), got.BlockRecords, want.BlockRecords)
	case got.TxRecords != want.TxRecords:
		return fmt.Errorf("%w: at %v: %d tx records, checkpoint has %d",
			ErrResumeDiverged, time.Duration(want.SimTimeNs), got.TxRecords, want.TxRecords)
	case got.Blocks != want.Blocks:
		return fmt.Errorf("%w: at %v: %d registry blocks, checkpoint has %d",
			ErrResumeDiverged, time.Duration(want.SimTimeNs), got.Blocks, want.Blocks)
	case got.RecordFingerprint != want.RecordFingerprint:
		return fmt.Errorf("%w: at %v: record fingerprint %s, checkpoint has %s",
			ErrResumeDiverged, time.Duration(want.SimTimeNs), got.RecordFingerprint, want.RecordFingerprint)
	case got.ChainFingerprint != want.ChainFingerprint:
		return fmt.Errorf("%w: at %v: chain fingerprint %s, checkpoint has %s",
			ErrResumeDiverged, time.Duration(want.SimTimeNs), got.ChainFingerprint, want.ChainFingerprint)
	}
	return nil
}

// validate rejects option combinations the determinism contract cannot
// honour, before any simulation state is touched.
func (o *RunOptions) validate(duration time.Duration) error {
	if o.Checkpoint != nil || o.Resume != nil {
		if o.CheckpointInterval <= 0 {
			return fmt.Errorf("core: checkpointing requires a positive CheckpointInterval")
		}
	}
	if o.Resume != nil {
		at := time.Duration(o.Resume.SimTimeNs)
		switch {
		case at <= 0 || at > duration:
			return fmt.Errorf("core: resume checkpoint at %v outside run horizon %v", at, duration)
		case at%o.CheckpointInterval != 0:
			return fmt.Errorf("core: resume checkpoint at %v not aligned to checkpoint interval %v",
				at, o.CheckpointInterval)
		}
	}
	return nil
}

// SimulateContext executes the simulation phase with cancellation and
// instrumentation. Cancelling ctx stops the run after the current
// event and returns an error wrapping ctx.Err(). See RunOptions for the
// progress, checkpoint and resume hooks. It also completes the spill
// file (chain dump) when one is configured.
func (c *Campaign) SimulateContext(ctx context.Context, opts RunOptions) error {
	if c.simulated {
		return fmt.Errorf("core: campaign already simulated")
	}
	if err := opts.validate(c.cfg.Duration); err != nil {
		return err
	}
	c.simulated = true
	start := time.Now()

	// Instrumentation schedules read-only ticks on the serial timeline;
	// a checkpointed or resumed run also fingerprints the record bus,
	// attached before the workloads start so no record escapes it.
	instr := &runInstr{c: c}
	if opts.Checkpoint != nil || opts.Resume != nil {
		instr.fp = logs.NewRecordFingerprinter()
		c.instrFP = instr.fp
		c.bus.Attach(instr.fp)
	}
	if opts.Progress != nil {
		interval := opts.ProgressInterval
		if interval <= 0 {
			interval = time.Minute
		}
		scheduleTicks(c.engine, interval, c.cfg.Duration, func(sim.Time) {
			opts.Progress(instr.progress())
		})
	}
	if opts.Checkpoint != nil || opts.Resume != nil {
		// The resumed run schedules the identical tick chain as the
		// original so the barrier at Resume.SimTimeNs occupies the same
		// position in the event order; ticks strictly before it are
		// no-ops, the tick at it verifies instead of emitting.
		resumeAt := sim.Time(-1)
		if opts.Resume != nil {
			resumeAt = sim.Time(opts.Resume.SimTimeNs)
		}
		scheduleTicks(c.engine, opts.CheckpointInterval, c.cfg.Duration, func(at sim.Time) {
			switch {
			case at < resumeAt:
				// Already covered by the checkpoint being resumed.
			case at == resumeAt:
				if err := instr.verify(opts.Resume); err != nil {
					instr.failure = err
					c.engine.Stop()
				}
			default:
				if opts.Checkpoint != nil {
					opts.Checkpoint(instr.checkpoint())
				}
			}
		})
	}

	c.miner.Start(c.cfg.Duration)
	if c.gen != nil {
		c.gen.Start(c.cfg.Duration)
	}
	// Interventions schedule their timed events in composition order
	// (the legacy churn driver started in exactly this position).
	for _, s := range c.scenarios {
		if iv, ok := s.(scenario.Intervention); ok {
			if err := iv.Start(c.scenarioEnv); err != nil {
				return fmt.Errorf("core: scenario %s: %w", s.Name(), err)
			}
		}
	}

	// Watch for cancellation off the simulation goroutine; Stop is the
	// one engine entry point that tolerates this.
	if ctx.Done() != nil {
		unwatch := make(chan struct{})
		watched := make(chan struct{})
		go func() {
			defer close(watched)
			select {
			case <-ctx.Done():
				c.engine.Stop()
			case <-unwatch:
			}
		}()
		defer func() { close(unwatch); <-watched }()
	}

	if _, runErr := c.engine.Run(c.cfg.Duration); runErr != nil {
		if c.spill != nil {
			// Best effort: flush what was recorded and release the
			// descriptor; the simulation error takes precedence.
			c.spill.Close()
			c.spill = nil
		}
		if instr.failure != nil {
			return instr.failure
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: simulation canceled: %w", err)
		}
		return fmt.Errorf("core: simulation: %w", runErr)
	}
	c.events = c.engine.EventsRun()
	c.messages = c.network.Sent()
	if c.spill != nil {
		logs.WriteChain(c.spill, c.registry)
		if err := c.spill.Close(); err != nil {
			return fmt.Errorf("core: spill %s: %w", c.cfg.SpillPath, err)
		}
		c.spill = nil
	}
	c.scenarioRes = c.snapshotScenarios()
	c.simWall = time.Since(start)
	if opts.Progress != nil {
		opts.Progress(instr.progress())
	}
	return nil
}

// Fingerprints returns the record and chain fingerprints of a
// completed instrumented run (SimulateContext with checkpointing
// enabled) — the values a final checkpoint at the horizon would carry.
// Returns zero values when the run was not fingerprinted.
func (c *Campaign) Fingerprints() (record, chain string) {
	if c.instrFP == nil {
		return "", ""
	}
	return c.instrFP.Sum(), logs.ChainFingerprint(c.registry)
}

// scheduleTicks schedules a self-rescheduling read-only tick chain on
// the serial timeline at interval, 2·interval, ... up to and including
// the horizon. Self-rescheduling (rather than pre-scheduling every
// tick) keeps the pending queue flat and — crucially for resume — is
// reproducible: each tick's seq number depends only on the events
// executed before it, which the determinism contract already fixes.
func scheduleTicks(e *sim.Engine, interval, horizon sim.Time, fn func(at sim.Time)) {
	if interval <= 0 {
		return
	}
	var tick func()
	next := interval
	tick = func() {
		at := next
		fn(at)
		next = at + interval
		if next <= horizon {
			e.Schedule(next, tick)
		}
	}
	e.Schedule(next, tick)
}
