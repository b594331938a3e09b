package main

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"ethmeasure/internal/core"
)

// scale sizes the workloads. Every campaign workload runs fullScale;
// the smoke tests run a tiny one.
type scale struct {
	nodes         int
	relayHorizon  time.Duration // relay-1000 virtual horizon
	blocksHorizon time.Duration // blocks-1000 virtual horizon
	logHorizon    time.Duration // virtual length of the reanalyze log
	setupBuilds   int           // NewCampaign repetitions behind setup_s
	logBuilds     int           // log productions behind reanalyze's setup_s
	passes        int           // reanalyze passes per timed repetition
	minReps       int           // timed repetitions even past --seconds
	maxReps       int
}

var fullScale = scale{
	nodes:         1000,
	relayHorizon:  70 * time.Second,
	blocksHorizon: 45 * time.Minute,
	logHorizon:    45 * time.Minute,
	setupBuilds:   5,
	logBuilds:     2,
	passes:        10,
	minReps:       2,
	maxReps:       64,
}

const mib = 1 << 20

// counts are the model's outputs that must repeat exactly for one seed:
// any difference between repetitions is a failed operation.
type counts struct {
	Events, Messages        uint64
	Blocks, Txs             int
	BlockRecords, TxRecords int
	Forks, Siblings         int
}

func (c counts) records() int { return c.BlockRecords + c.TxRecords }

// ops is what one operation of a campaign workload is: a transaction
// relayed to the whole network when the tx workload is on, a block
// otherwise.
func (c counts) ops(tx bool) int {
	if tx {
		return c.Txs
	}
	return c.Blocks
}

// campaignRun is one build + simulate + analyze of a campaign.
type campaignRun struct {
	counts   counts
	digest   string
	nodes    int
	build    time.Duration // CPU of core.NewCampaign
	sim      time.Duration // CPU of SimulateContext
	cpu      time.Duration // CPU of SimulateContext + Analyze
	wall     time.Duration
	liveHeap uint64

	spillBytes int64
	spillSum   [32]byte

	// Traced runs only.
	analyzeCPU time.Duration
	renderCPU  time.Duration
	pendingMax int
	profile    map[string]moduleCPU // by phase label
	gc         gcDelta
}

// sameAs reports how other differs from r, or nil when it repeats r.
func (r *campaignRun) sameAs(other *campaignRun) error {
	switch {
	case other.counts != r.counts:
		return fmt.Errorf("counts differ between repetitions: %+v vs %+v", r.counts, other.counts)
	case other.digest != r.digest:
		return fmt.Errorf("analysis differs between repetitions:\n  %s\n  %s", r.digest, other.digest)
	case other.spillSum != r.spillSum:
		return fmt.Errorf("spill files differ between repetitions")
	}
	return nil
}

// campaignConfig is core.DefaultConfig at the benchmark's scale: the
// serial engine, bounded memory, and spill when a path is given.
func (r *runner) campaignConfig(tx bool, horizon time.Duration, spill string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = r.o.seed
	cfg.NumNodes = r.o.scale.nodes
	cfg.Duration = horizon
	cfg.Shards = 1
	cfg.RetainRecords = false
	cfg.EnableTxWorkload = tx
	cfg.SpillPath = spill
	return cfg
}

// campaignRep builds, simulates and analyzes one campaign. traced adds
// spans, progress ticks and the render step; profiled adds the CPU
// profile and runtime counters over Simulate + Analyze.
func (r *runner) campaignRep(cfg core.Config, traced, profiled bool) (*campaignRun, error) {
	var tr *tracer
	if traced {
		tr = r.tr
	}
	runtime.GC()
	root := tr.begin("campaign", 0)
	defer tr.end(root)
	run := &campaignRun{}

	b := tr.begin("core.NewCampaign", root)
	cpu0 := processCPU()
	c, err := core.NewCampaign(cfg)
	run.build = processCPU() - cpu0
	tr.end(b)
	if err != nil {
		return nil, fmt.Errorf("build campaign: %w", err)
	}
	if c.Sharded() != nil {
		return nil, fmt.Errorf("campaign resolved to %d shards; the benchmark measures the serial engine", cfg.ResolveShards())
	}

	var opts core.RunOptions
	progressCalls := 0
	if traced {
		opts.Progress = func(p core.Progress) {
			progressCalls++
			pending := c.Engine().Pending()
			run.pendingMax = max(run.pendingMax, pending)
			var mem runtime.MemStats
			runtime.ReadMemStats(&mem)
			tr.ticks = append(tr.ticks, tick{
				VirtualMin: p.SimTime.Minutes(),
				CPUMs:      ms(processCPU() - cpu0),
				Events:     p.Events,
				Pending:    pending,
				HeapMB:     float64(mem.HeapAlloc) / mib,
			})
		}
	}
	var (
		prof *cpuProfile
		gc0  gcSnapshot
	)
	if profiled {
		if prof, err = startProfile(); err != nil {
			return nil, err
		}
		gc0 = readGC()
	}
	ctx := context.Background()
	wall0 := time.Now()
	cpu0 = processCPU()
	s := tr.begin("core.SimulateContext", root)
	phase(ctx, profiled, "simulate", func(ctx context.Context) { err = c.SimulateContext(ctx, opts) })
	tr.end(s)
	run.sim = processCPU() - cpu0
	var res *core.Results
	if err == nil {
		a := tr.begin("core.Analyze", root)
		phase(ctx, profiled, "analyze", func(context.Context) { res, err = c.Analyze() })
		run.analyzeCPU = tr.end(a)
	}
	run.cpu = processCPU() - cpu0
	run.wall = time.Since(wall0)
	if profiled {
		run.gc = readGC().since(gc0)
		var perr error
		run.profile, perr = prof.stop()
		if err == nil {
			err = perr
		}
	}
	if err != nil {
		return nil, fmt.Errorf("run campaign: %w", err)
	}

	f := campaignFindings(res)
	run.digest = f.digest()
	if traced {
		rend := tr.begin("report.render", root)
		f.render(io.Discard)
		run.renderCPU = tr.end(rend)
	}
	run.liveHeap = heapAfterGC()
	runtime.KeepAlive(c)
	runtime.KeepAlive(res)

	st := res.Stats
	ticks := uint64(0)
	if progressCalls > 0 {
		// Every progress call but the final one is an engine event.
		ticks = uint64(progressCalls - 1)
	}
	run.nodes = st.Nodes
	run.counts = counts{
		Events: st.Events - ticks, Messages: st.Messages,
		Blocks: st.BlocksCreated, Txs: st.TxsCreated,
		BlockRecords: st.BlockRecords, TxRecords: st.TxRecords,
		Forks: res.Forks.TotalForks, Siblings: c.Miner().Siblings(),
	}
	if run.counts.Events == 0 || run.counts.Blocks == 0 || run.counts.records() == 0 {
		return nil, fmt.Errorf("empty campaign: %+v", run.counts)
	}
	if cfg.SpillPath != "" {
		data, err := os.ReadFile(cfg.SpillPath)
		if err != nil {
			return nil, fmt.Errorf("read spill: %w", err)
		}
		run.spillBytes = int64(len(data))
		run.spillSum = sha256.Sum256(data)
	}
	return run, nil
}

// phase runs fn under the pprof label phase=name when profiled, so the
// profile can tell simulation samples from analysis samples.
func phase(ctx context.Context, profiled bool, name string, fn func(context.Context)) {
	if !profiled {
		fn(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels("phase", name), fn)
}

// verifyLog reanalyzes a campaign's log the way ethanalyze does and
// requires the same figures the campaign's own Analyze produced.
func verifyLog(path string, want *campaignRun, tr *tracer, parent int, sc *stageClock) error {
	rean, err := reanalyze(path, tr, parent, sc)
	if err != nil {
		return err
	}
	return rean.check(want)
}

// check compares a reanalysis with the campaign that wrote the log.
func (rean *reanalysis) check(want *campaignRun) error {
	if rean.records != want.counts.records() {
		return fmt.Errorf("reanalyze read %d records, the campaign produced %d", rean.records, want.counts.records())
	}
	if got := rean.findings.digest(); got != want.digest {
		return fmt.Errorf("reanalyze disagrees with the campaign's Analyze:\n  campaign:  %s\n  reanalyze: %s", want.digest, got)
	}
	return nil
}

// campaignWorkload runs relay-1000 (tx on, no spill) or blocks-1000
// (tx off, binary spill).
func (r *runner) campaignWorkload(tx bool, horizon time.Duration) error {
	spill := ""
	if !tx {
		spill = filepath.Join(r.o.tmpdir, "blocks.ethlog")
	}
	cfg := r.campaignConfig(tx, horizon, spill)
	if err := r.requireSerial(cfg); err != nil {
		return err
	}
	vmin := horizon.Minutes()
	if r.tr != nil {
		return r.campaignTraced(cfg, vmin)
	}
	sc := r.o.scale

	// setup_s and live_heap_mb: NewCampaign, built from the same post-GC
	// heap each time. The spill file is left out so that no build holds
	// a file open.
	setupCfg := cfg
	setupCfg.SpillPath = ""
	var setups, builtHeaps, kernels []float64
	for i := 0; i < sc.setupBuilds; i++ {
		kernels = append(kernels, calibrate().Seconds())
		runtime.GC()
		cpu0 := processCPU()
		c, err := core.NewCampaign(setupCfg)
		d := processCPU() - cpu0
		r.op(err)
		if err == nil {
			setups = append(setups, d.Seconds())
			builtHeaps = append(builtHeaps, float64(heapAfterGC())/mib)
		}
		runtime.KeepAlive(c)
	}

	var (
		ref                *campaignRun
		cpus, walls, heaps []float64
	)
	start := time.Now()
	for rep := 0; rep < sc.maxReps && (rep < sc.minReps || time.Since(start) < r.o.duration()); rep++ {
		kernels = append(kernels, calibrate().Seconds())
		run, err := r.campaignRep(cfg, false, false)
		switch {
		case err != nil:
		case ref != nil:
			err = ref.sameAs(run)
		case spill != "":
			err = verifyLog(spill, run, nil, 0, nil)
		}
		r.op(err)
		if err != nil {
			continue
		}
		if ref == nil {
			ref = run
		}
		cpus = append(cpus, run.cpu.Seconds())
		walls = append(walls, run.wall.Seconds())
		heaps = append(heaps, float64(run.liveHeap)/mib)
	}
	if ref == nil || len(setups) == 0 {
		return errors.New("no repetition succeeded")
	}
	ops := float64(ref.counts.ops(tx))
	raw := median(cpus)
	scale := hostScale(kernels)
	r.set("setup_s", median(setups)*scale)
	r.set("cpu_us_per_op", raw*scale*1e6/ops)
	r.set("live_heap_mb", median(builtHeaps))
	r.diag["raw_setup_s"] = median(setups)
	r.diag["raw_cpu_us_per_op"] = raw * 1e6 / ops
	r.diag["rep_cpu_s"] = cpus
	r.diag["kernel_s"] = kernels
	r.diag["end_heap_mb"] = median(heaps)
	r.diag["peak_rss_mb"] = peakRSSMB()
	r.diag["cpu_s_per_vmin"] = raw / vmin
	r.diag["wall_s_per_vmin"] = median(walls) / vmin
	r.diag["cpu_ns_per_record"] = raw * 1e9 / float64(ref.counts.records())
	r.diag["counts"] = ref.counts
	return nil
}

// campaignTraced is the traced run of a campaign workload: one untraced
// repetition, then one traced repetition that must repeat its counts.
func (r *runner) campaignTraced(cfg core.Config, vmin float64) error {
	base, err := r.campaignRep(cfg, false, false)
	r.op(err)
	if err != nil {
		return err
	}
	run, err := r.campaignRep(cfg, true, true)
	if err == nil {
		err = base.sameAs(run)
	}
	r.op(err)
	if err != nil {
		return err
	}
	if cfg.SpillPath != "" {
		err = verifyLog(cfg.SpillPath, run, nil, 0, nil)
		r.op(err)
		if err != nil {
			return err
		}
	}
	// Campaigns decode nothing, and the collector folds each record as
	// the bus delivers it inside Simulate, so the fold is read from the
	// profile's analysis samples there.
	records := float64(run.counts.records())
	decode, fold := 0.0, float64(run.profile["simulate"]["analysis"])/records
	all := merge(run.profile[""], run.profile["simulate"], run.profile["analyze"])
	r.setCampaignLayers(run, vmin)
	r.set("logs.decode_ns_per_record", decode)
	r.set("analysis.fold_ns_per_record", fold)
	r.set("analysis.finalize_ms", ms(run.analyzeCPU))
	r.set("report.render_ms", ms(run.renderCPU))
	r.setGC(run.gc, vmin, records)
	r.set("gc.end_heap_mb", float64(run.liveHeap)/mib)
	r.set("gc.peak_rss_mb", peakRSSMB())
	r.setProfile(all, run.cpu)
	r.set("trace.overhead_share", (run.cpu.Seconds()-base.cpu.Seconds())/base.cpu.Seconds())
	r.diag["counts"] = run.counts
	return nil
}

// setCampaignLayers sets the model-level per-layer metrics of a traced
// campaign run.
func (r *runner) setCampaignLayers(run *campaignRun, vmin float64) {
	c := run.counts
	msgs := float64(c.Messages)
	perOr0 := func(num float64, den int) float64 {
		if den == 0 {
			return 0
		}
		return num / float64(den)
	}
	r.set("sim.events_per_vmin", float64(c.Events)/vmin)
	r.set("sim.cpu_ns_per_event", float64(run.sim.Nanoseconds())/float64(c.Events))
	r.set("sim.pending_max", float64(run.pendingMax))
	r.set("simnet.msgs_per_vmin", msgs/vmin)
	r.set("p2p.msgs_per_tx", perOr0(msgs, c.Txs))
	r.set("p2p.msgs_per_block", perOr0(msgs, c.Blocks))
	r.set("p2p.useful_delivery_ratio", float64((c.Txs+c.Blocks)*run.nodes)/msgs)
	r.set("chain.blocks", float64(c.Blocks))
	r.set("chain.forks", float64(c.Forks))
	r.set("mining.siblings", float64(c.Siblings))
	r.set("txgen.txs_per_vmin", float64(c.Txs)/vmin)
	r.set("measure.records_per_vmin", float64(c.records())/vmin)
	r.set("logs.spill_bytes_per_record", float64(run.spillBytes)/float64(c.records()))
	r.set("core.build_s", run.build.Seconds())
}

// setGC sets the runtime's per-layer metrics for a region that covered
// vmin virtual minutes and records records.
func (r *runner) setGC(d gcDelta, vmin, records float64) {
	r.set("gc.alloc_mb_per_vmin", float64(d.allocBytes)/mib/vmin)
	r.set("gc.cycles_per_vmin", float64(d.cycles)/vmin)
	r.set("gc.cpu_share", d.cpuShare)
	r.set("gc.alloc_bytes_per_record", float64(d.allocBytes)/records)
}

// setProfile sets every module's share of the traced region's sampled
// CPU, and how much of the region's measured CPU the samples cover.
func (r *runner) setProfile(m moduleCPU, regionCPU time.Duration) {
	for mod, share := range m.shares() {
		r.set(mod+".cpu_share", share)
	}
	r.set("trace.profile_cpu_share", float64(m.total())/float64(regionCPU.Nanoseconds()))
}

// passRun is one timed repetition of the reanalyze workload.
type passRun struct {
	cpu, wall time.Duration
	liveHeap  uint64
	clock     stageClock
	profile   map[string]moduleCPU
	gc        gcDelta
}

// reanalyzeWorkload times the ethanalyze path over a log produced in
// set-up by a blocks-only campaign whose primary vantages peer with the
// whole network.
func (r *runner) reanalyzeWorkload() error {
	sc := r.o.scale
	path := filepath.Join(r.o.tmpdir, "reanalyze.ethlog")
	cfg := r.campaignConfig(false, sc.logHorizon, path)
	for i := range cfg.Vantages {
		if !cfg.Vantages[i].Auxiliary {
			cfg.Vantages[i].Peers = cfg.NumNodes
		}
	}
	if err := r.requireSerial(cfg); err != nil {
		return err
	}
	traced := r.tr != nil

	// Set-up: produce the log several times; every production must
	// write the same bytes.
	productions := sc.logBuilds
	if traced {
		productions = 1
	}
	var (
		logRun          *campaignRun
		setups, kernels []float64
	)
	for i := 0; i < productions; i++ {
		if !traced {
			kernels = append(kernels, calibrate().Seconds())
		}
		run, err := r.campaignRep(cfg, traced, false)
		if err == nil && logRun != nil {
			err = logRun.sameAs(run)
		}
		r.op(err)
		if err != nil {
			continue
		}
		if logRun == nil {
			logRun = run
		}
		setups = append(setups, (run.build + run.sim).Seconds())
	}
	if logRun == nil {
		return errors.New("set-up produced no log")
	}
	records := float64(logRun.counts.records())
	vmin := sc.logHorizon.Minutes()
	perPass := func(d time.Duration) float64 { return d.Seconds() / float64(sc.passes) }

	if traced {
		base, err := r.passRep(path, logRun, false)
		if err != nil {
			return err
		}
		run, err := r.passRep(path, logRun, true)
		if err != nil {
			return err
		}
		decode, fold, err := splitStream(path, sc.passes, run.clock.stream, records)
		if err != nil {
			return err
		}
		passRecords := records * float64(sc.passes)
		r.setCampaignLayers(logRun, vmin)
		r.set("logs.decode_ns_per_record", decode)
		r.set("analysis.fold_ns_per_record", fold)
		r.set("analysis.finalize_ms", perPass(run.clock.finalize)*1e3)
		r.set("report.render_ms", perPass(run.clock.render)*1e3)
		r.setGC(run.gc, vmin*float64(sc.passes), passRecords)
		r.set("gc.end_heap_mb", float64(run.liveHeap)/mib)
		r.set("gc.peak_rss_mb", peakRSSMB())
		r.setProfile(merge(run.profile[""]), run.cpu)
		r.set("trace.overhead_share", (run.cpu.Seconds()-base.cpu.Seconds())/base.cpu.Seconds())
		r.diag["counts"] = logRun.counts
		return nil
	}

	var cpus, walls, heaps []float64
	start := time.Now()
	for rep := 0; rep < sc.maxReps && (rep < sc.minReps || time.Since(start) < r.o.duration()); rep++ {
		kernels = append(kernels, calibrate().Seconds())
		run, err := r.passRep(path, logRun, false)
		if err != nil {
			continue
		}
		cpus = append(cpus, run.cpu.Seconds())
		walls = append(walls, run.wall.Seconds())
		heaps = append(heaps, float64(run.liveHeap)/mib)
	}
	if len(cpus) == 0 {
		return errors.New("no repetition succeeded")
	}
	raw := median(cpus) / float64(sc.passes)
	scale := hostScale(kernels)
	r.set("setup_s", median(setups)*scale)
	r.set("cpu_us_per_op", raw*scale*1e6/records)
	r.set("live_heap_mb", median(heaps))
	r.diag["raw_setup_s"] = median(setups)
	r.diag["raw_cpu_us_per_op"] = raw * 1e6 / records
	r.diag["rep_cpu_s"] = cpus
	r.diag["kernel_s"] = kernels
	r.diag["peak_rss_mb"] = peakRSSMB()
	r.diag["cpu_s_per_vmin"] = raw / vmin
	r.diag["wall_s_per_vmin"] = median(walls) / float64(sc.passes) / vmin
	r.diag["counts"] = logRun.counts
	return nil
}

// passRep is one timed repetition: sc.passes reanalyze passes over the
// log, each checked against the producing campaign's own Analyze. Each
// pass is one operation.
func (r *runner) passRep(path string, want *campaignRun, traced bool) (*passRun, error) {
	var tr *tracer
	if traced {
		tr = r.tr
	}
	run := &passRun{}
	var (
		clock *stageClock
		prof  *cpuProfile
		gc0   gcSnapshot
		err   error
	)
	runtime.GC()
	root := tr.begin("reanalyze", 0)
	defer tr.end(root)
	if traced {
		clock = &run.clock
		if prof, err = startProfile(); err != nil {
			return nil, err
		}
		gc0 = readGC()
	}
	var last *reanalysis
	failed := false
	wall0 := time.Now()
	cpu0 := processCPU()
	for p := 0; p < r.o.scale.passes; p++ {
		id := tr.begin("reanalyze.pass", root)
		rean, err := reanalyze(path, tr, id, clock)
		tr.end(id)
		if err == nil {
			err = rean.check(want)
		}
		r.op(err)
		failed = failed || err != nil
		last = rean
	}
	run.cpu = processCPU() - cpu0
	run.wall = time.Since(wall0)
	if traced {
		run.gc = readGC().since(gc0)
		if run.profile, err = prof.stop(); err != nil {
			return nil, err
		}
	}
	run.liveHeap = heapAfterGC()
	runtime.KeepAlive(last)
	if failed {
		return nil, errors.New("reanalyze pass failed")
	}
	return run, nil
}

// splitStream tells decode from fold: it times passes decode-only
// passes over the log at path and charges the rest of stream, the
// stream-stage CPU of as many full passes, to the fold. Both come back
// as nanoseconds per record.
func splitStream(path string, passes int, stream time.Duration, records float64) (decode, fold float64, err error) {
	var dec time.Duration
	for i := 0; i < passes; i++ {
		d, err := decodeLog(path)
		if err != nil {
			return 0, 0, err
		}
		dec += d
	}
	n := records * float64(passes)
	return float64(dec.Nanoseconds()) / n, float64((stream - dec).Nanoseconds()) / n, nil
}

// requireSerial refuses configurations that would not run the serial
// engine: on a multi-core host the default shard count is not 1.
func (r *runner) requireSerial(cfg core.Config) error {
	shards := cfg.ResolveShards()
	r.diag["shards"] = shards
	if shards != 1 {
		return fmt.Errorf("resolved shard count is %d, want 1", shards)
	}
	return nil
}
