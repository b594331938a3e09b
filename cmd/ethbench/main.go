// Command ethbench runs calibrated campaign benchmarks at increasing
// network scales and emits machine-readable BENCH_*.json so engine
// performance is measured, not asserted. It is the performance gate
// behind the CI `bench` job: compare a fresh run against the committed
// BENCH_baseline.json and fail on regression.
//
// Usage:
//
//	ethbench -profile ci -out BENCH_ci.json -baseline BENCH_baseline.json
//	ethbench -profile full -out BENCH_full.json
//	ethbench -scales 1000:10 -out BENCH_1k.json
//
// Each campaign entry reports the simulation phase (wall and allocs
// per campaign, plus ns/event, allocs/event, events/sec and peak heap)
// and the analysis phase
// (records/sec, ns/record, wall, peak heap during analysis — the
// streaming record pipeline's cost) for a fixed-seed run, plus
// scheduler microbenchmarks (engine/selfschedule on a near-empty
// queue, engine/schedule-churn under a 4096-event standing
// population), the delivery path (simnet/deliver: Transmit plus an
// AfterArg event on the receiver, on a tie-heavy fan-in) and two chain
// protocol-dispatch
// microbenchmarks (per-import fork choice, uncle-candidate sweep —
// the hot paths that call through the consensus.Protocol interface)
// via testing.Benchmark.
// -cpuprofile / -memprofile capture pprof profiles of the whole run.
// Regression checks compare ns_per_op, allocs_per_op and analysis
// ns/record within a fractional threshold, and analysis peak heap
// within the threshold plus a 32 MB epsilon. For campaign entries the
// op is the whole campaign (wall ns and allocs per campaign), so a
// change that runs the same campaign with fewer events is gated on
// what it saves, not on what each remaining event costs; ns/event,
// allocs/event, simulation peak heap and events/sec are informational.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/chain"
	"ethmeasure/internal/cliutil"
	"ethmeasure/internal/consensus"
	"ethmeasure/internal/core"
	"ethmeasure/internal/geo"
	"ethmeasure/internal/logs"
	"ethmeasure/internal/measure"
	"ethmeasure/internal/scenario"
	"ethmeasure/internal/sim"
	"ethmeasure/internal/simnet"
	"ethmeasure/internal/types"
)

// Entry is one benchmark measurement. Campaign entries fill every
// field; microbenchmark entries only the ns/allocs pair. For campaign
// entries NsPerOp is simulation wall ns per campaign and AllocsPerOp
// allocs per campaign; the per-event figures ride along.
type Entry struct {
	Name string `json:"name"`

	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`

	Nodes          int     `json:"nodes,omitempty"`
	VirtualMinutes float64 `json:"virtual_minutes,omitempty"`
	Events         uint64  `json:"events,omitempty"`
	Messages       uint64  `json:"messages,omitempty"`
	WallMs         float64 `json:"wall_ms,omitempty"`
	NsPerEvent     float64 `json:"ns_per_event,omitempty"`
	AllocsPerEvent float64 `json:"allocs_per_event,omitempty"`
	EventsPerSec   float64 `json:"events_per_sec,omitempty"`
	PeakHeapBytes  uint64  `json:"peak_heap_bytes,omitempty"`

	// Analysis-phase profile: one streaming pass over the records the
	// campaign produced, finalized into every per-figure result.
	Records               uint64  `json:"records,omitempty"`
	AnalysisWallMs        float64 `json:"analysis_wall_ms,omitempty"`
	AnalysisNsPerRecord   float64 `json:"analysis_ns_per_record,omitempty"`
	AnalysisRecordsPerSec float64 `json:"analysis_records_per_sec,omitempty"`
	AnalysisPeakHeapBytes uint64  `json:"analysis_peak_heap_bytes,omitempty"`

	// VantagePeers records a non-default vantage adjacency
	// (-vantage-peers), which drives record volume.
	VantagePeers int `json:"vantage_peers,omitempty"`
}

// Report is the BENCH_*.json document.
type Report struct {
	Schema    int     `json:"schema"`
	GoVersion string  `json:"go_version"`
	Profile   string  `json:"profile"`
	NumCPU    int     `json:"num_cpu,omitempty"`
	Entries   []Entry `json:"entries"`
}

type scale struct {
	nodes   int
	virtual time.Duration
}

func profileScales(profile string) ([]scale, error) {
	switch profile {
	case "short":
		return []scale{{150, 8 * time.Minute}}, nil
	case "ci":
		return []scale{{150, 8 * time.Minute}, {1000, 3 * time.Minute}}, nil
	case "full":
		return []scale{{150, 20 * time.Minute}, {1000, 10 * time.Minute}, {5000, 4 * time.Minute}}, nil
	default:
		return nil, fmt.Errorf("unknown profile %q (short|ci|full)", profile)
	}
}

func parseScales(spec string) ([]scale, error) {
	var out []scale
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		nodesStr, minStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("scale %q not in nodes:virtualMinutes form", part)
		}
		nodes, err := strconv.Atoi(strings.TrimSpace(nodesStr))
		if err != nil || nodes < 10 {
			return nil, fmt.Errorf("bad node count in scale %q", part)
		}
		minutes, err := strconv.ParseFloat(strings.TrimSpace(minStr), 64)
		if err != nil || minutes <= 0 {
			return nil, fmt.Errorf("bad virtual minutes in scale %q", part)
		}
		out = append(out, scale{nodes, time.Duration(minutes * float64(time.Minute))})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("scale list %q is empty", spec)
	}
	return out, nil
}

// campaignConfig builds the calibrated benchmark campaign for a scale:
// the default pool population and vantages over an s.nodes-node
// network, transaction workload on, fixed seed so runs are comparable.
// vantagePeers > 0 re-peers the primary vantages with that many nodes
// (the paper's vantages ran "unlimited peers"; record volume scales
// with vantage adjacency, so this is the knob for record-bound
// analysis benchmarks). The default caps peers at 50 to keep the
// simulation-phase numbers comparable across PRs.
func campaignConfig(s scale, seed int64, vantagePeers int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Duration = s.virtual
	cfg.NumNodes = s.nodes
	cfg.OutDegree = 8
	for i := range cfg.Vantages {
		if vantagePeers > 0 && !cfg.Vantages[i].Auxiliary {
			cfg.Vantages[i].Peers = vantagePeers
		} else if cfg.Vantages[i].Peers > 50 {
			cfg.Vantages[i].Peers = 50
		}
	}
	core.ApplyCapacity(&cfg)
	return cfg
}

// heapSampler polls HeapAlloc until stopped and records the maximum.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func startHeapSampler() *heapSampler {
	hs := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(hs.done)
		ticker := time.NewTicker(50 * time.Millisecond)
		defer ticker.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-hs.stop:
				return
			case <-ticker.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > hs.peak.Load() {
					hs.peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()
	return hs
}

func (hs *heapSampler) Stop() uint64 {
	close(hs.stop)
	<-hs.done
	return hs.peak.Load()
}

func runCampaignEntry(s scale, vantagePeers int, proto consensus.Spec, scens []scenario.Spec, w io.Writer) (Entry, error) {
	cfg := campaignConfig(s, 1, vantagePeers)
	cfg.Protocol = proto
	cfg.Scenarios = scens
	campaign, err := core.NewCampaign(cfg)
	if err != nil {
		return Entry{}, fmt.Errorf("build %d-node campaign: %w", s.nodes, err)
	}
	name := fmt.Sprintf("campaign/%d", s.nodes)
	if tag := cfg.ProtocolTag(); tag != consensus.DefaultName {
		// Non-default-protocol entries are named apart so they never
		// gate against (or pollute) the ethereum baseline.
		name += "/protocol:" + tag
	}
	for _, tag := range campaign.ScenarioTags() {
		// Scenario-composed entries are named apart so they never gate
		// against (or pollute) the vanilla baseline.
		name += "/" + tag
	}

	// Simulation phase.
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	sampler := startHeapSampler()

	start := time.Now()
	simErr := campaign.SimulateContext(context.Background(), core.RunOptions{})
	wall := time.Since(start)

	peak := sampler.Stop()
	if simErr != nil {
		return Entry{}, fmt.Errorf("run %d-node campaign: %w", s.nodes, simErr)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)

	// Analysis phase: release the dead simulation graph and GC-fence
	// first, so the phase's peak heap reflects record-pipeline state —
	// the arrival index and the chain registry — not the network or
	// simulation garbage.
	campaign.ReleaseNetwork()
	runtime.GC()
	analysisSampler := startHeapSampler()
	analysisStart := time.Now()
	res, err := campaign.Analyze()
	analysisWall := time.Since(analysisStart)
	analysisPeak := analysisSampler.Stop()
	if err != nil {
		return Entry{}, fmt.Errorf("analyze %d-node campaign: %w", s.nodes, err)
	}
	// Short analyses finish between sampler ticks; the post-phase
	// HeapAlloc is a lower bound on the true peak.
	var postAnalysis runtime.MemStats
	runtime.ReadMemStats(&postAnalysis)
	if postAnalysis.HeapAlloc > analysisPeak {
		analysisPeak = postAnalysis.HeapAlloc
	}

	events := res.Stats.Events
	if events == 0 {
		return Entry{}, fmt.Errorf("%d-node campaign executed no events", s.nodes)
	}
	records := uint64(res.Stats.BlockRecords) + uint64(res.Stats.TxRecords)
	if records == 0 {
		return Entry{}, fmt.Errorf("%d-node campaign produced no records", s.nodes)
	}
	allocs := after.Mallocs - before.Mallocs
	e := Entry{
		Name:           name,
		Nodes:          s.nodes,
		VirtualMinutes: s.virtual.Minutes(),
		Events:         events,
		Messages:       res.Stats.Messages,
		WallMs:         float64(wall.Nanoseconds()) / 1e6,
		NsPerOp:        float64(wall.Nanoseconds()),
		AllocsPerOp:    float64(allocs),
		NsPerEvent:     float64(wall.Nanoseconds()) / float64(events),
		AllocsPerEvent: float64(allocs) / float64(events),
		EventsPerSec:   float64(events) / wall.Seconds(),
		PeakHeapBytes:  peak,

		Records:               records,
		AnalysisWallMs:        float64(analysisWall.Nanoseconds()) / 1e6,
		AnalysisNsPerRecord:   float64(analysisWall.Nanoseconds()) / float64(records),
		AnalysisRecordsPerSec: float64(records) / analysisWall.Seconds(),
		AnalysisPeakHeapBytes: analysisPeak,
		VantagePeers:          vantagePeers,
	}
	fmt.Fprintf(w, "%-22s %9.1f ms/run %10.0f allocs/run %9.1f ns/event %8.3f allocs/event %12.0f events/s  peak heap %6.1f MB  (%d events)\n",
		e.Name, e.WallMs, e.AllocsPerOp, e.NsPerEvent, e.AllocsPerEvent, e.EventsPerSec, float64(peak)/(1<<20), events)
	fmt.Fprintf(w, "%-22s %9.1f ns/record %*s %12.0f records/s  peak heap %6.1f MB  (%d records, wall %v)\n",
		"  analysis", e.AnalysisNsPerRecord, 21, "", e.AnalysisRecordsPerSec,
		float64(analysisPeak)/(1<<20), records, analysisWall.Round(time.Millisecond))
	return e, nil
}

// engineEntry microbenchmarks the scheduler's dominant pattern: events
// scheduling their successors.
func engineEntry(w io.Writer) Entry {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		e := sim.NewEngine(1)
		remaining := b.N
		var tick func()
		tick = func() {
			if remaining > 0 {
				remaining--
				e.After(time.Microsecond, tick)
			}
		}
		e.After(0, tick)
		b.ResetTimer()
		if _, err := e.Run(time.Duration(1<<62 - 1)); err != nil {
			b.Fatal(err)
		}
	})
	e := Entry{
		Name:        "engine/selfschedule",
		NsPerOp:     float64(res.NsPerOp()),
		AllocsPerOp: float64(res.AllocsPerOp()),
	}
	fmt.Fprintf(w, "%-16s %9.1f ns/op    %8.3f allocs/op\n", e.Name, e.NsPerOp, e.AllocsPerOp)
	return e
}

// churnHandler drives the schedule-churn benchmark: each fired event
// reschedules itself after an exponential hold plus a bimodal offset
// (intra-region ~8ms vs inter-continental ~120ms), the simulator's
// real scheduling-key distribution.
type churnHandler struct {
	e         *sim.Engine
	rng       *rand.Rand
	remaining int
}

func (c *churnHandler) HandleSimEvent(arg sim.Arg) {
	if c.remaining <= 0 {
		return
	}
	c.remaining--
	hold := sim.ExpDuration(c.rng, 25*time.Millisecond)
	if c.rng.Intn(2) == 0 {
		hold += 8 * time.Millisecond
	} else {
		hold += 120 * time.Millisecond
	}
	c.e.AfterArg(hold, c, arg)
}

// churnEntry microbenchmarks scheduling under a standing population of
// 4096 pending events — the regime where a binary heap pays O(log n)
// per operation and the ladder queue pays amortized O(1). This is the
// engine's cost profile mid-campaign, as opposed to the near-empty
// queue engine/selfschedule measures.
func churnEntry(w io.Writer) Entry {
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		e := sim.NewEngine(1)
		tick := &churnHandler{e: e, rng: sim.NewStream(1, "bench-churn", 0), remaining: b.N}
		for i := 0; i < 4096; i++ {
			e.AfterArg(time.Duration(i)*50*time.Microsecond, tick, sim.Arg{})
		}
		b.ResetTimer()
		if _, err := e.Run(time.Duration(1<<62 - 1)); err != nil {
			b.Fatal(err)
		}
	})
	e := Entry{
		Name:        "engine/schedule-churn",
		NsPerOp:     float64(res.NsPerOp()),
		AllocsPerOp: float64(res.AllocsPerOp()),
	}
	fmt.Fprintf(w, "%-22s %9.1f ns/op    %8.3f allocs/op\n", e.Name, e.NsPerOp, e.AllocsPerOp)
	return e
}

// benchSink is the do-nothing receiver for the simnet
// microbenchmarks: it counts the delivery events it handles.
type benchSink struct{ delivered uint64 }

func (s *benchSink) HandleSimEvent(sim.Arg) { s.delivered++ }

// deliverEntries microbenchmarks the wire delivery path the protocol
// layer uses, Transmit then an AfterArg event on the receiver, on a
// tie-heavy fan-in (64 senders flooding one destination over a
// zero-jitter link, so every burst lands at one instant).
func deliverEntries(w io.Writer) []Entry {
	const fanIn = 64
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		engine := sim.NewEngine(1)
		net := simnet.New(engine, geo.UniformLatencyModel(10*time.Millisecond, 0))
		senders := make([]*simnet.Node, fanIn)
		for i := range senders {
			ep, err := net.AddNode(geo.NorthAmerica, 1e9)
			if err != nil {
				b.Fatal(err)
			}
			senders[i] = ep
		}
		dst, err := net.AddNode(geo.NorthAmerica, 1e9)
		if err != nil {
			b.Fatal(err)
		}
		sink := &benchSink{}
		round := func(n int) {
			for i := 0; i < n; i++ {
				d := net.Transmit(senders[i], dst, 600, 1, uint64(i))
				engine.AfterArg(d, sink, sim.Arg{K: 1, U: uint64(i)})
			}
			if _, err := engine.Run(engine.Now() + time.Second); err != nil {
				b.Fatal(err)
			}
		}
		// Warm the event slab and the scheduler's chunk pool so the
		// timed region measures steady state, not first-touch growth.
		for i := 0; i < 512; i++ {
			round(fanIn)
		}
		b.ResetTimer()
		for sent := 0; sent < b.N; sent += fanIn {
			n := fanIn
			if rem := b.N - sent; rem < n {
				n = rem
			}
			round(n)
		}
	})
	e := Entry{Name: "simnet/deliver", NsPerOp: float64(res.NsPerOp()), AllocsPerOp: float64(res.AllocsPerOp())}
	fmt.Fprintf(w, "%-22s %9.1f ns/op    %8.3f allocs/op\n", e.Name, e.NsPerOp, e.AllocsPerOp)
	return []Entry{e}
}

// chainDispatchEntries microbenchmarks the chain/mining hot paths that
// now dispatch through the consensus.Protocol interface: the per-node
// block import (fork choice) and the miner's uncle-candidate sweep
// (reference validity). These mirror BenchmarkViewImport and
// BenchmarkUncleCandidates in internal/chain, and gate the dispatch
// cost of the pluggable-protocol refactor against the pre-refactor
// baseline.
func chainDispatchEntries(w io.Writer) []Entry {
	// A fixed-length chain keeps the per-import cost independent of
	// b.N (a b.N-sized chain would make ns/op drift with the iteration
	// count the harness happens to pick): the loop imports the same
	// 4096 blocks into a fresh view every cycle, amortizing the view
	// construction across the cycle.
	const chainLen = 4096
	runtime.GC()
	importRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		issuer := types.NewHashIssuer(1)
		reg := chain.NewRegistry(0, issuer)
		parent := reg.Genesis()
		blocks := make([]*types.Block, chainLen)
		for i := range blocks {
			blk := &types.Block{
				Hash:       issuer.Next(),
				Number:     parent.Number + 1,
				ParentHash: parent.Hash,
				Miner:      1,
			}
			if err := reg.Add(blk); err != nil {
				b.Fatal(err)
			}
			blocks[i] = blk
			parent = blk
		}
		var v *chain.View
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % chainLen
			if j == 0 {
				v = chain.NewView(reg)
			}
			v.Import(blocks[j])
		}
	})
	runtime.GC()
	unclesRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		issuer := types.NewHashIssuer(1)
		reg := chain.NewRegistry(0, issuer)
		v := chain.NewView(reg)
		parent := reg.Genesis()
		for i := 0; i < 64; i++ {
			blk := &types.Block{Hash: issuer.Next(), Number: parent.Number + 1, ParentHash: parent.Hash, Miner: 1}
			if err := reg.Add(blk); err != nil {
				b.Fatal(err)
			}
			v.Import(blk)
			sib := &types.Block{Hash: issuer.Next(), Number: parent.Number + 1, ParentHash: parent.Hash, Miner: 2}
			if err := reg.Add(sib); err != nil {
				b.Fatal(err)
			}
			v.Import(sib)
			parent = blk
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.UncleCandidates(2)
		}
	})
	entries := []Entry{
		{Name: "chain/viewimport", NsPerOp: float64(importRes.NsPerOp()), AllocsPerOp: float64(importRes.AllocsPerOp())},
		{Name: "chain/unclecandidates", NsPerOp: float64(unclesRes.NsPerOp()), AllocsPerOp: float64(unclesRes.AllocsPerOp())},
	}
	for _, e := range entries {
		fmt.Fprintf(w, "%-22s %9.1f ns/op    %8.3f allocs/op\n", e.Name, e.NsPerOp, e.AllocsPerOp)
	}
	return entries
}

// benchRecords builds a deterministic synthetic record corpus with the
// field distribution of a real campaign spill: a handful of vantages,
// mostly compact-kind block records with an occasional announce and
// fetched, zig-zag-sensitive signed fields (negative NTP-skewed
// arrival offsets near the epoch, Miner -1 for unattributed blocks).
func benchRecords(n int) ([]measure.BlockRecord, []measure.TxRecord) {
	vantages := []string{"NA", "EA", "WE", "CE"}
	kinds := []string{"block", "block", "block", "announce", "fetched"}
	rng := rand.New(rand.NewSource(42))
	blocks := make([]measure.BlockRecord, n)
	for i := range blocks {
		miner := int64(rng.Intn(32))
		if i%97 == 0 {
			miner = -1
		}
		blocks[i] = measure.BlockRecord{
			Vantage: vantages[rng.Intn(len(vantages))],
			At:      time.Duration(rng.Int63n(int64(20*time.Minute))) - time.Minute,
			Hash:    types.Hash(rng.Uint64()),
			Number:  uint64(i / 4),
			Miner:   types.PoolID(miner),
			Parent:  types.Hash(rng.Uint64()),
			From:    types.NodeID(rng.Intn(2000) - 1),
			Kind:    kinds[rng.Intn(len(kinds))],
			NTxs:    rng.Intn(200),
			Size:    500 + rng.Intn(30000),
		}
	}
	txs := make([]measure.TxRecord, n)
	for i := range txs {
		txs[i] = measure.TxRecord{
			Vantage: vantages[rng.Intn(len(vantages))],
			At:      time.Duration(rng.Int63n(int64(20 * time.Minute))),
			Hash:    types.Hash(rng.Uint64()),
			Sender:  types.AccountID(rng.Intn(500)),
			Nonce:   uint64(rng.Intn(4000)),
			From:    types.NodeID(rng.Intn(2000) - 1),
		}
	}
	return blocks, txs
}

// encodeLog writes the whole corpus once in the given format and
// returns the serialized bytes (decode-benchmark input).
func encodeLog(format logs.Format, blocks []measure.BlockRecord, txs []measure.TxRecord) ([]byte, error) {
	var buf bytes.Buffer
	lw := logs.NewWriterFormat(&buf, format)
	for i := range blocks {
		lw.RecordBlock(blocks[i])
		lw.RecordTx(txs[i])
	}
	if err := lw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// bestOf reruns a benchmark and keeps the fastest result. The JSONL
// codec paths allocate enough per record that a single
// testing.Benchmark sample jitters with GC timing beyond the 15% CI
// gate; the minimum across five samples is the standard stable
// estimator for that.
func bestOf(n int, bench func() testing.BenchmarkResult) testing.BenchmarkResult {
	best := bench()
	for i := 1; i < n; i++ {
		if r := bench(); r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// logsEntries microbenchmarks the record pipeline itself: spill
// encoding (binary vs JSONL, ns and allocs per record — the per-record
// cost every bounded-memory campaign pays), decoding (the re-analysis
// read path), the record fingerprinter (paid per record on every
// checkpointed run), and analysis/stream (decode + collector fold, the
// full ethanalyze inner loop). All gate against BENCH_baseline.json
// like every other entry; the binary encoder additionally has a
// 0 allocs/record pin in internal/logs.
func logsEntries(w io.Writer) ([]Entry, error) {
	const n = 4096
	blocks, txs := benchRecords(n)

	encode := func(format logs.Format) testing.BenchmarkResult {
		return bestOf(5, func() testing.BenchmarkResult {
			return testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				lw := logs.NewWriterFormat(io.Discard, format)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					j := i % n
					if i%2 == 0 {
						lw.RecordBlock(blocks[j])
					} else {
						lw.RecordTx(txs[j])
					}
				}
				b.StopTimer()
				if err := lw.Flush(); err != nil {
					b.Fatal(err)
				}
			})
		})
	}

	binData, err := encodeLog(logs.FormatBinary, blocks, txs)
	if err != nil {
		return nil, err
	}
	jsonlData, err := encodeLog(logs.FormatJSONL, blocks, txs)
	if err != nil {
		return nil, err
	}
	decode := func(format logs.Format, data []byte) testing.BenchmarkResult {
		return bestOf(5, func() testing.BenchmarkResult {
			return testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				r := logs.NewReaderFormat(bytes.NewReader(data), format)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e, err := r.Next()
					if err == io.EOF {
						r = logs.NewReaderFormat(bytes.NewReader(data), format)
						e, err = r.Next()
					}
					if err != nil {
						b.Fatal(err)
					}
					if e.Kind != logs.KindBlock && e.Kind != logs.KindTx {
						b.Fatalf("unexpected entry kind %q", e.Kind)
					}
				}
			})
		})
	}

	fingerprint := bestOf(5, func() testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			fp := logs.NewRecordFingerprinter()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % n
				if i%2 == 0 {
					fp.RecordBlock(blocks[j])
				} else {
					fp.RecordTx(txs[j])
				}
			}
			b.StopTimer()
			if fp.Blocks()+fp.Txs() == 0 {
				b.Fatal("fingerprinter consumed no records")
			}
		})
	})

	// analysis/stream: the ethanalyze inner loop — decode a binary
	// frame, fold the record into the streaming collector.
	stream := bestOf(5, func() testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			ds := &analysis.Dataset{Vantages: []string{"NA", "EA", "WE", "CE"}, InterBlock: 13300 * time.Millisecond}
			collector := analysis.NewCollector(ds, "")
			r := logs.NewReaderFormat(bytes.NewReader(binData), logs.FormatBinary)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e, err := r.Next()
				if err == io.EOF {
					r = logs.NewReaderFormat(bytes.NewReader(binData), logs.FormatBinary)
					e, err = r.Next()
				}
				if err != nil {
					b.Fatal(err)
				}
				switch e.Kind {
				case logs.KindBlock:
					collector.RecordBlock(*e.Block)
				case logs.KindTx:
					collector.RecordTx(*e.Tx)
				}
			}
			b.StopTimer()
			if collector.BlockRecords()+collector.TxRecords() == 0 {
				b.Fatal("collector folded no records")
			}
		})
	})

	binEnc, jsonlEnc := encode(logs.FormatBinary), encode(logs.FormatJSONL)
	entries := []Entry{
		{Name: "logs/encode", NsPerOp: float64(binEnc.NsPerOp()), AllocsPerOp: float64(binEnc.AllocsPerOp())},
		{Name: "logs/encode/jsonl", NsPerOp: float64(jsonlEnc.NsPerOp()), AllocsPerOp: float64(jsonlEnc.AllocsPerOp())},
	}
	binDec, jsonlDec := decode(logs.FormatBinary, binData), decode(logs.FormatJSONL, jsonlData)
	entries = append(entries,
		Entry{Name: "logs/decode", NsPerOp: float64(binDec.NsPerOp()), AllocsPerOp: float64(binDec.AllocsPerOp())},
		Entry{Name: "logs/decode/jsonl", NsPerOp: float64(jsonlDec.NsPerOp()), AllocsPerOp: float64(jsonlDec.AllocsPerOp())},
		Entry{Name: "logs/fingerprint", NsPerOp: float64(fingerprint.NsPerOp()), AllocsPerOp: float64(fingerprint.AllocsPerOp())},
		Entry{Name: "analysis/stream", NsPerOp: float64(stream.NsPerOp()), AllocsPerOp: float64(stream.AllocsPerOp())},
	)
	for _, e := range entries {
		fmt.Fprintf(w, "%-22s %9.1f ns/op    %8.3f allocs/op\n", e.Name, e.NsPerOp, e.AllocsPerOp)
	}
	return entries, nil
}

// compare checks fresh entries against a baseline report. ns and
// allocs may regress by at most threshold (fractionally); allocs get a
// small absolute epsilon so a 0-alloc baseline does not flag noise.
// With allocsOnly, ns differences are reported but never fail: the
// allocation budget is machine-independent while wall time is not, so
// this is the right gate when the baseline was recorded on different
// hardware or a different toolchain than the run under test.
func compare(fresh, baseline *Report, threshold float64, allocsOnly bool, w io.Writer) error {
	base := make(map[string]Entry, len(baseline.Entries))
	for _, e := range baseline.Entries {
		base[e.Name] = e
	}
	var failures []string
	for _, e := range fresh.Entries {
		b, ok := base[e.Name]
		if !ok {
			fmt.Fprintf(w, "compare: %s not in baseline, skipping\n", e.Name)
			continue
		}
		if limit := b.NsPerOp * (1 + threshold); e.NsPerOp > limit {
			msg := fmt.Sprintf("%s: ns/op %.1f exceeds baseline %.1f by more than %.0f%%",
				e.Name, e.NsPerOp, b.NsPerOp, threshold*100)
			if allocsOnly {
				fmt.Fprintf(w, "note (informational, -allocs-only): %s\n", msg)
			} else {
				failures = append(failures, msg)
			}
		}
		if limit := b.AllocsPerOp*(1+threshold) + 0.01; e.AllocsPerOp > limit {
			failures = append(failures, fmt.Sprintf("%s: allocs/op %.3f exceeds baseline %.3f by more than %.0f%%",
				e.Name, e.AllocsPerOp, b.AllocsPerOp, threshold*100))
		}
		if limit := b.AnalysisNsPerRecord * (1 + threshold); b.AnalysisNsPerRecord > 0 && e.AnalysisNsPerRecord > limit {
			msg := fmt.Sprintf("%s: analysis ns/record %.1f exceeds baseline %.1f by more than %.0f%%",
				e.Name, e.AnalysisNsPerRecord, b.AnalysisNsPerRecord, threshold*100)
			if allocsOnly {
				fmt.Fprintf(w, "note (informational, -allocs-only): %s\n", msg)
			} else {
				failures = append(failures, msg)
			}
		}
		// Analysis peak heap is near machine-independent (it tracks
		// pipeline state, not timing); gate it with a small absolute
		// epsilon so tiny campaigns do not flag GC noise.
		if b.AnalysisPeakHeapBytes > 0 {
			if limit := float64(b.AnalysisPeakHeapBytes)*(1+threshold) + 32*(1<<20); float64(e.AnalysisPeakHeapBytes) > limit {
				failures = append(failures, fmt.Sprintf("%s: analysis peak heap %.1f MB exceeds baseline %.1f MB by more than %.0f%% + 32 MB",
					e.Name, float64(e.AnalysisPeakHeapBytes)/(1<<20), float64(b.AnalysisPeakHeapBytes)/(1<<20), threshold*100))
			}
		}
	}
	if len(failures) > 0 {
		sort.Strings(failures)
		for _, f := range failures {
			fmt.Fprintf(w, "REGRESSION %s\n", f)
		}
		return fmt.Errorf("%d performance regression(s) against baseline", len(failures))
	}
	fmt.Fprintf(w, "compare: no regressions beyond %.0f%% against baseline\n", threshold*100)
	return nil
}

func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &r, nil
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ethbench", flag.ContinueOnError)
	fs.SetOutput(w)
	profile := fs.String("profile", "short", "scale profile: short, ci or full")
	scalesSpec := fs.String("scales", "", "override scales as nodes:virtualMinutes[,...] (e.g. 1000:10)")
	out := fs.String("out", "BENCH_results.json", "output JSON path (empty to skip writing)")
	baselinePath := fs.String("baseline", "", "baseline JSON to compare against; exits non-zero on regression")
	threshold := fs.Float64("threshold", 0.15, "max fractional ns/allocs regression against the baseline")
	allocsOnly := fs.Bool("allocs-only", false, "gate only on allocs/op; report ns drift without failing (for cross-hardware baselines)")
	skipEngine := fs.Bool("skip-engine", false, "skip the scheduler microbenchmark")
	vantagePeers := fs.Int("vantage-peers", 0, "re-peer primary vantages with this many nodes (0 = default 50 cap); raises record volume for analysis-phase benchmarks")
	skipDispatch := fs.Bool("skip-dispatch", false, "skip the chain protocol-dispatch microbenchmarks")
	skipLogs := fs.Bool("skip-logs", false, "skip the record-pipeline microbenchmarks (logs/* and analysis/stream entries)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole benchmark run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (post-GC, end of run) to this file")
	protocol := fs.String("protocol", "", "consensus protocol for the benchmark campaigns: name[:key=val,...] (default ethereum; non-default entries are name-suffixed)")
	version := fs.Bool("version", false, "print build version and exit")
	var scenFlags cliutil.StringList
	fs.Var(&scenFlags, "scenario", "compose a scenario into the benchmark campaign: name[:key=val,...] (repeatable; measures a scenario's perf cost)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(w, cliutil.VersionLine("ethbench"))
		return nil
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	var proto consensus.Spec
	if *protocol != "" {
		spec, err := consensus.Parse(*protocol)
		if err != nil {
			return err
		}
		if err := consensus.Validate(spec); err != nil {
			return err
		}
		proto = spec
	}
	var scens []scenario.Spec
	for _, raw := range scenFlags {
		spec, err := scenario.Parse(raw)
		if err != nil {
			return err
		}
		if err := scenario.Validate(spec); err != nil {
			return err
		}
		scens = append(scens, spec)
	}
	scales, err := profileScales(*profile)
	if err != nil {
		return err
	}
	if *scalesSpec != "" {
		if scales, err = parseScales(*scalesSpec); err != nil {
			return err
		}
	}

	report := &Report{Schema: 1, GoVersion: runtime.Version(), Profile: *profile, NumCPU: runtime.NumCPU()}
	if !*skipEngine {
		report.Entries = append(report.Entries, engineEntry(w), churnEntry(w))
		report.Entries = append(report.Entries, deliverEntries(w)...)
	}
	if !*skipDispatch {
		report.Entries = append(report.Entries, chainDispatchEntries(w)...)
	}
	if !*skipLogs {
		entries, err := logsEntries(w)
		if err != nil {
			return err
		}
		report.Entries = append(report.Entries, entries...)
	}
	for _, s := range scales {
		entry, err := runCampaignEntry(s, *vantagePeers, proto, scens, w)
		if err != nil {
			return err
		}
		report.Entries = append(report.Entries, entry)
	}

	if *out != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *out)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC() // profile live heap, not garbage
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		fmt.Fprintf(w, "wrote %s\n", *memprofile)
	}
	if *baselinePath != "" {
		baseline, err := loadReport(*baselinePath)
		if err != nil {
			return fmt.Errorf("load baseline: %w", err)
		}
		if err := compare(report, baseline, *threshold, *allocsOnly, w); err != nil {
			return err
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ethbench:", err)
		os.Exit(1)
	}
}
