package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"ethmeasure/internal/logs"
)

// runInstrumented executes a fresh tiny campaign under the given
// options and returns its final fingerprints plus the collected
// checkpoints.
func runInstrumented(t *testing.T, cfg Config, opts RunOptions) (record, chain string, cks []logs.Checkpoint) {
	t.Helper()
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatalf("NewCampaign: %v", err)
	}
	prev := opts.Checkpoint
	opts.Checkpoint = func(ck logs.Checkpoint) {
		cks = append(cks, ck)
		if prev != nil {
			prev(ck)
		}
	}
	if opts.CheckpointInterval <= 0 {
		opts.CheckpointInterval = 2 * time.Minute
	}
	if err := campaign.SimulateContext(context.Background(), opts); err != nil {
		t.Fatalf("SimulateContext: %v", err)
	}
	record, chain = campaign.Fingerprints()
	return record, chain, cks
}

func TestRunContextCancel(t *testing.T) {
	cfg := tinyConfig()
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatalf("NewCampaign: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	// Cancel from a progress tick: the watcher goroutine must stop the
	// engine and SimulateContext must surface ctx's error.
	opts := RunOptions{
		ProgressInterval: time.Minute,
		Progress: func(p Progress) {
			if p.SimTime >= 2*time.Minute {
				cancel()
			}
		},
	}
	err = campaign.SimulateContext(ctx, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SimulateContext after cancel = %v, want context.Canceled", err)
	}
	if campaign.Engine().Now() >= cfg.Duration {
		t.Errorf("engine ran to horizon %v despite cancellation", campaign.Engine().Now())
	}
}

func TestProgressTicks(t *testing.T) {
	cfg := tinyConfig()
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatalf("NewCampaign: %v", err)
	}
	var snaps []Progress
	var cks []logs.Checkpoint
	res, err := campaign.RunContext(context.Background(), RunOptions{
		ProgressInterval:   2 * time.Minute,
		Progress:           func(p Progress) { snaps = append(snaps, p) },
		CheckpointInterval: 5 * time.Minute,
		Checkpoint:         func(ck logs.Checkpoint) { cks = append(cks, ck) },
	})
	if err != nil {
		t.Fatalf("RunContext: %v", err)
	}
	// 10m duration / 2m interval = 5 ticks + 1 completion call.
	if len(snaps) != 6 {
		t.Fatalf("got %d progress snapshots, want 6", len(snaps))
	}
	for i, p := range snaps {
		if p.Duration != cfg.Duration {
			t.Errorf("snap %d: Duration = %v", i, p.Duration)
		}
		if i > 0 && p.SimTime < snaps[i-1].SimTime {
			t.Errorf("snap %d: SimTime went backwards (%v after %v)", i, p.SimTime, snaps[i-1].SimTime)
		}
		if i > 0 && p.Events < snaps[i-1].Events {
			t.Errorf("snap %d: Events went backwards", i)
		}
	}
	final := snaps[len(snaps)-1]
	if final.SimTime != cfg.Duration {
		t.Errorf("final SimTime = %v, want %v", final.SimTime, cfg.Duration)
	}
	if final.BlockRecords == 0 || final.TxRecords == 0 || final.Blocks == 0 {
		t.Errorf("final counters empty: %+v", final)
	}
	if res.Stats.BlockRecords != int(final.BlockRecords) || res.Stats.TxRecords != int(final.TxRecords) {
		t.Errorf("stats records %d/%d != final progress %d/%d",
			res.Stats.BlockRecords, res.Stats.TxRecords, final.BlockRecords, final.TxRecords)
	}
	// The checkpoint at the horizon counts what the run's results do.
	if len(cks) != 2 {
		t.Fatalf("got %d checkpoints, want 2", len(cks))
	}
	last := cks[len(cks)-1]
	if time.Duration(last.SimTimeNs) != cfg.Duration ||
		res.Stats.BlockRecords != int(last.BlockRecords) || res.Stats.TxRecords != int(last.TxRecords) ||
		res.Stats.BlocksCreated+1 != last.Blocks {
		t.Errorf("last checkpoint %+v disagrees with stats %+v", last, res.Stats)
	}
}

func TestInstrumentationDoesNotPerturbRun(t *testing.T) {
	// The determinism contract: progress + checkpoint ticks are
	// read-only events, so an instrumented run must produce the exact
	// record and chain stream of a bare one.
	cfg := tinyConfig()

	bare, err := NewCampaign(cfg)
	if err != nil {
		t.Fatalf("NewCampaign: %v", err)
	}
	ref := logs.NewRecordFingerprinter()
	bare.bus.Attach(ref)
	if err := bare.SimulateContext(context.Background(), RunOptions{}); err != nil {
		t.Fatalf("SimulateContext: %v", err)
	}

	record, chain, cks := runInstrumented(t, cfg, RunOptions{
		ProgressInterval: 90 * time.Second,
		Progress:         func(Progress) {},
	})
	if record != ref.Sum() {
		t.Errorf("instrumented record fingerprint %s != bare %s", record, ref.Sum())
	}
	if want := logs.ChainFingerprint(bare.registry); chain != want {
		t.Errorf("instrumented chain fingerprint %s != bare %s", chain, want)
	}
	// 10m / 2m interval = 5 checkpoints, monotone in time and counts.
	if len(cks) != 5 {
		t.Fatalf("got %d checkpoints, want 5", len(cks))
	}
	for i, ck := range cks {
		if want := int64((time.Duration(i) + 1) * 2 * time.Minute); ck.SimTimeNs != want {
			t.Errorf("checkpoint %d at %d, want %d", i, ck.SimTimeNs, want)
		}
		if i > 0 && ck.BlockRecords < cks[i-1].BlockRecords {
			t.Errorf("checkpoint %d: block records went backwards", i)
		}
	}
}

func TestCheckpointResumeEquivalence(t *testing.T) {
	cfg := tinyConfig()

	// Uninterrupted reference run with checkpointing on.
	wantRec, wantChain, cks := runInstrumented(t, cfg, RunOptions{})
	if len(cks) == 0 {
		t.Fatal("no checkpoints emitted")
	}

	// Resume from a mid-run checkpoint: the replay must verify at the
	// barrier and finish with identical fingerprints.
	mid := cks[1] // 4m of 10m
	var after []logs.Checkpoint
	gotRec, gotChain, _ := runInstrumented(t, cfg, RunOptions{
		Resume:     &mid,
		Checkpoint: func(ck logs.Checkpoint) { after = append(after, ck) },
	})
	if gotRec != wantRec || gotChain != wantChain {
		t.Errorf("resumed fingerprints (%s, %s) != uninterrupted (%s, %s)",
			gotRec, gotChain, wantRec, wantChain)
	}
	// Ticks at/before the resume point are suppressed; later ones match
	// the reference run's checkpoints bit for bit (modulo wall time).
	if len(after) != len(cks)-2 {
		t.Fatalf("resumed run emitted %d checkpoints, want %d", len(after), len(cks)-2)
	}
	for i, ck := range after {
		want := cks[i+2]
		if ck.SimTimeNs != want.SimTimeNs ||
			ck.RecordFingerprint != want.RecordFingerprint ||
			ck.ChainFingerprint != want.ChainFingerprint {
			t.Errorf("resumed checkpoint %d differs from reference: %+v vs %+v", i, ck, want)
		}
	}
}

func TestResumeDivergenceDetected(t *testing.T) {
	cfg := tinyConfig()
	_, _, cks := runInstrumented(t, cfg, RunOptions{})
	if len(cks) == 0 {
		t.Fatal("no checkpoints emitted")
	}
	bad := cks[0]
	bad.RecordFingerprint = "deadbeef"

	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatalf("NewCampaign: %v", err)
	}
	err = campaign.SimulateContext(context.Background(), RunOptions{
		Resume:             &bad,
		CheckpointInterval: 2 * time.Minute,
	})
	if !errors.Is(err, ErrResumeDiverged) {
		t.Fatalf("SimulateContext = %v, want ErrResumeDiverged", err)
	}
	// The run must stop at the failed barrier, not limp to the horizon.
	if now := campaign.Engine().Now(); now > time.Duration(bad.SimTimeNs) {
		t.Errorf("engine at %v after divergence at %v", now, time.Duration(bad.SimTimeNs))
	}
}

func TestRunOptionsValidation(t *testing.T) {
	cfg := tinyConfig()
	cases := []struct {
		name string
		opts RunOptions
	}{
		{"checkpoint without interval", RunOptions{Checkpoint: func(logs.Checkpoint) {}}},
		{"resume without interval", RunOptions{Resume: &logs.Checkpoint{SimTimeNs: int64(2 * time.Minute)}}},
		{"misaligned resume", RunOptions{
			Resume:             &logs.Checkpoint{SimTimeNs: int64(3 * time.Minute)},
			CheckpointInterval: 2 * time.Minute,
		}},
		{"resume past horizon", RunOptions{
			Resume:             &logs.Checkpoint{SimTimeNs: int64(12 * time.Minute)},
			CheckpointInterval: 2 * time.Minute,
		}},
	}
	for _, tc := range cases {
		campaign, err := NewCampaign(cfg)
		if err != nil {
			t.Fatalf("NewCampaign: %v", err)
		}
		if err := campaign.SimulateContext(context.Background(), tc.opts); err == nil {
			t.Errorf("%s: no error", tc.name)
		} else if campaign.simulated {
			t.Errorf("%s: campaign marked simulated after option error", tc.name)
		}
	}
}
