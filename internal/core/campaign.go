package core

import (
	"context"
	"fmt"
	"time"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/chain"
	"ethmeasure/internal/consensus"
	"ethmeasure/internal/geo"
	"ethmeasure/internal/logs"
	"ethmeasure/internal/measure"
	"ethmeasure/internal/mining"
	"ethmeasure/internal/p2p"
	"ethmeasure/internal/scenario"
	"ethmeasure/internal/sim"
	"ethmeasure/internal/simnet"
	"ethmeasure/internal/txgen"
	"ethmeasure/internal/types"
)

// RunStats captures bookkeeping about a finished campaign.
type RunStats struct {
	VirtualDuration time.Duration
	WallDuration    time.Duration
	Events          uint64
	Messages        uint64 // wire messages sent, including deliveries dropped as dead
	BlocksCreated   int
	TxsCreated      int
	Nodes           int

	// BlockRecords and TxRecords count the measurement records that
	// flowed through the record bus (all vantages, including auxiliary
	// ones) — the unit the analysis pipeline's throughput is measured
	// in.
	BlockRecords int
	TxRecords    int
}

// Results bundles the dataset and every per-figure analysis of one
// campaign. Analyses that need the transaction workload are nil when
// it was disabled.
type Results struct {
	Dataset *analysis.Dataset
	Stats   RunStats

	Propagation *analysis.PropagationResult      // Figure 1
	Redundancy  *analysis.RedundancyResult       // Table II
	FirstObs    *analysis.FirstObservationResult // Figure 2
	PoolGeo     *analysis.PoolGeographyResult    // Figure 3
	Commit      *analysis.CommitTimeResult       // Figure 4
	Ordering    *analysis.OrderingResult         // Figure 5
	Empty       *analysis.EmptyBlocksResult      // Figure 6
	Forks       *analysis.ForksResult            // Table III
	OneMiner    *analysis.OneMinerForksResult    // §III-C5
	Sequences   *analysis.SequencesResult        // Figure 7
	TxProp      *analysis.TxPropagationResult    // §III-A1

	// Extension analyses beyond the paper's figures.
	Rewards     *analysis.RewardsResult     // §V: uncle/one-miner-fork profit
	Finality    *analysis.FinalityResult    // §III-D: k-block rule safety
	Throughput  *analysis.ThroughputResult  // §V: wasted resources
	InterBlock  *analysis.InterBlockResult  // §III-C1: block intervals
	Withholding *analysis.WithholdingResult // §III-D: burst-publication forensic
	GeoDelay    *analysis.GeoDelayResult    // Figure 1 drill-down per vantage
	FeeMarket   *analysis.FeeMarketResult   // fee vs inclusion-delay bands

	// Scenarios annotates the run with the composed interventions and
	// their scenario_*-prefixed metrics (merged into KeyMetrics). Nil
	// when the campaign ran vanilla.
	Scenarios *analysis.ScenarioResult

	// Protocol is the canonical tag of the consensus protocol the
	// campaign ran under ("ethereum", "bitcoin",
	// "ghost-inclusive:depth=10", ...).
	Protocol string
}

// Campaign is one configured measurement run.
type Campaign struct {
	cfg Config

	// pool, when non-nil, is the warm-run pool this campaign draws its
	// recyclable state from (see Pool).
	pool *Pool

	// proto is the consensus rule set built from cfg.Protocol; the
	// registry, miner and analyses all dispatch through it.
	proto consensus.Protocol

	engine    *sim.Engine
	network   *simnet.Network
	registry  *chain.Registry
	store     *txgen.Store
	miner     *mining.Miner
	gen       *txgen.Generator
	vantages  []*measure.Vantage
	regular   []*p2p.Node
	gateways  [][]*p2p.Node
	vantNodes []*p2p.Node

	// Composed scenario plugins (legacy churn/withholding fields
	// included), their shared environment, and the result annotation
	// snapshotted at the end of Simulate.
	scenarios    []scenario.Scenario
	scenarioEnv  *scenario.Env
	scenarioTags []string
	scenarioRes  *analysis.ScenarioResult

	// Record pipeline: every vantage writes to the bus, which fans out
	// to the streaming analysis collector, the optional in-memory
	// retainer and the optional binary spill writer.
	bus       *measure.Bus
	collector *analysis.Collector
	recorder  *measure.MemoryRecorder // nil unless Config.RetainRecords
	spill     *logs.FileWriter        // nil unless Config.SpillPath set
	dataset   *analysis.Dataset

	simulated bool
	simWall   time.Duration

	// instrFP is the record fingerprinter of an instrumented run
	// (SimulateContext with checkpointing), kept for Fingerprints.
	instrFP *logs.RecordFingerprinter

	// Snapshots taken while the simulation state is still alive, so
	// Analyze and LogMeta keep working after ReleaseNetwork.
	numNodes int
	events   uint64
	messages uint64
}

// NewCampaign validates the configuration and builds the full system:
// network, topology, pool gateways, vantages, workloads.
func NewCampaign(cfg Config) (*Campaign, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Campaign{cfg: cfg}
	if err := c.build(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Campaign) build() error {
	cfg := &c.cfg
	proto, err := consensus.Build(cfg.Protocol)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	c.proto = proto
	if cfg.Mining.InterBlockTime == 0 {
		// An unset mining interval means "the protocol's native rate"
		// (Bitcoin's 10 minutes, Ethereum's 13.3 s). The presets pin the
		// interval explicitly so protocol comparisons default to equal
		// block rates.
		cfg.Mining.InterBlockTime = proto.TargetInterval()
		if cfg.Mining.BlockCapacity <= 0 {
			// The capacity invariant depends on the interval just
			// adopted; without this a hand-built config would mine
			// zero-capacity (always-empty) blocks.
			ApplyCapacity(cfg)
		}
	}
	if c.pool != nil {
		c.engine = c.pool.takeEngine(cfg.Seed)
		c.network = c.pool.takeNetwork(c.engine, cfg.Latency)
	} else {
		c.engine = sim.NewEngine(cfg.Seed)
		c.network = simnet.New(c.engine, cfg.Latency)
	}
	blockIssuer := types.NewHashIssuer(1)
	c.registry = chain.NewRegistry(cfg.GenesisNumber, blockIssuer)
	c.registry.SetProtocol(proto)
	c.store = txgen.NewStore()

	// Record pipeline: the dataset carries the campaign context the
	// analysis finalizers need; its record slices stay nil unless
	// RetainRecords fills them after the run.
	c.dataset = &analysis.Dataset{
		Vantages:   cfg.PrimaryVantages(),
		Chain:      c.registry,
		PoolNames:  cfg.PoolNames(),
		InterBlock: cfg.Mining.InterBlockTime,
		Duration:   cfg.Duration,
	}
	if c.pool != nil {
		c.collector = c.pool.takeCollector(c.dataset, cfg.RedundancyVantage)
	} else {
		c.collector = analysis.NewCollector(c.dataset, cfg.RedundancyVantage)
	}
	c.bus = measure.NewBus(c.collector)
	if cfg.RetainRecords {
		c.recorder = measure.NewMemoryRecorder()
		c.bus.Attach(c.recorder)
	}

	placeRNG := c.engine.RNG("placement")
	speedRNG := c.engine.RNG("procspeed")

	// Regular nodes, with mixed hardware speeds.
	for i := 0; i < cfg.NumNodes; i++ {
		region := cfg.NodeDistribution.Sample(placeRNG)
		endpoint, err := c.network.AddNode(region, cfg.NodeBandwidth)
		if err != nil {
			return err
		}
		node := c.newP2PNode(endpoint)
		lo, hi := cfg.NodeProcSpeedMin, cfg.NodeProcSpeedMax
		if hi > lo {
			node.SetProcSpeed(lo + speedRNG.Float64()*(hi-lo))
		} else if lo > 0 {
			node.SetProcSpeed(lo)
		}
		c.regular = append(c.regular, node)
	}
	buildTopology := p2p.BuildRandomTopology
	if cfg.UseDiscovery {
		buildTopology = p2p.BuildDiscoveryTopology
	}
	if err := buildTopology(c.engine.RNG("topology"), c.regular, cfg.OutDegree); err != nil {
		return err
	}

	// Pool gateways: one node per configured region per pool, dialing
	// into the regular population. Pools run capable hardware.
	var allGateways []*p2p.Node
	for i := range cfg.Pools {
		spec := &cfg.Pools[i]
		var gws []*p2p.Node
		for _, region := range spec.Gateways {
			endpoint, err := c.network.AddNode(region, cfg.GatewayBandwidth)
			if err != nil {
				return err
			}
			gw := c.newP2PNode(endpoint)
			gw.SetProcSpeed(cfg.GatewayProcSpeed)
			p2p.ConnectToRandom(c.engine.RNG("topology"), gw, c.regular, cfg.GatewayPeers)
			gws = append(gws, gw)
		}
		c.gateways = append(c.gateways, gws)
		allGateways = append(allGateways, gws...)
	}

	// Measurement vantages. Primary vantages run "unlimited peers" and
	// therefore also end up adjacent to a share of pool gateway nodes;
	// auxiliary vantages model default clients and do not.
	clockRNG := c.engine.RNG("clock")
	topoRNG := c.engine.RNG("topology")
	for _, vs := range cfg.Vantages {
		endpoint, err := c.network.AddNode(vs.Region, cfg.VantageBandwidth)
		if err != nil {
			return err
		}
		node := c.newP2PNode(endpoint)
		node.SetProcSpeed(cfg.VantageProcSpeed)
		peers := vs.Peers
		if peers > len(c.regular) {
			peers = len(c.regular)
		}
		p2p.ConnectToRandom(topoRNG, node, c.regular, peers)
		if !vs.Auxiliary && cfg.VantageGatewayFraction > 0 {
			k := int(cfg.VantageGatewayFraction*float64(len(allGateways)) + 0.5)
			p2p.ConnectToRandom(topoRNG, node, allGateways, k)
		}
		vantage := measure.NewVantage(vs.Name, cfg.Clock, clockRNG.Int63(), c.bus)
		node.Observer = vantage
		c.vantages = append(c.vantages, vantage)
		c.vantNodes = append(c.vantNodes, node)
	}

	// Mining subsystem.
	miner, err := mining.NewMiner(
		cfg.Mining, c.engine, c.registry, cfg.Pools, c.gateways,
		blockIssuer, c.store.Get,
	)
	if err != nil {
		return err
	}
	c.miner = miner

	// Transaction workload. The mempool-floor controller observes
	// inclusion through the miner's block hook.
	if cfg.EnableTxWorkload {
		txIssuer := types.NewHashIssuer(2)
		gen, err := txgen.New(cfg.TxGen, c.engine, c.regular, cfg.SenderDistribution, txIssuer, c.store)
		if err != nil {
			return err
		}
		c.gen = gen
		c.miner.OnBlockMined = func(b *types.Block, _ *mining.Pool) {
			gen.NoteIncluded(b.TxHashes)
		}
	}

	// Scenario composition: Build instantiates every configured spec,
	// then topology mutators rewire the assembled graph and miner
	// strategies attach to their pools; interventions wait for
	// Simulate.
	scenarios, err := scenario.Build(cfg.Scenarios)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	c.scenarios = scenarios
	c.scenarioTags = scenario.Tags(cfg.Scenarios)
	c.scenarioEnv = &scenario.Env{
		Engine:    c.engine,
		Network:   c.network,
		Registry:  c.registry,
		P2P:       &cfg.P2P,
		Miner:     c.miner,
		Regular:   c.regular,
		Gateways:  c.gateways,
		Vantages:  c.vantNodes,
		OutDegree: cfg.OutDegree,
		Duration:  cfg.Duration,
	}
	for _, s := range c.scenarios {
		if tm, ok := s.(scenario.TopologyMutator); ok {
			if err := tm.MutateTopology(c.scenarioEnv); err != nil {
				return fmt.Errorf("core: scenario %s: %w", s.Name(), err)
			}
		}
	}
	for _, s := range c.scenarios {
		if ms, ok := s.(scenario.MinerStrategy); ok {
			if err := ms.AttachStrategy(c.miner); err != nil {
				return fmt.Errorf("core: scenario %s: %w", s.Name(), err)
			}
		}
	}

	c.numNodes = c.network.NumNodes()

	// Raw-record spill: stream records to disk as they are produced.
	// The metadata entry leads the file (the network is fully sized
	// here); the chain dump is appended when the run finishes.
	if cfg.SpillPath != "" {
		spill, err := logs.CreateFile(cfg.SpillPath)
		if err != nil {
			return err
		}
		spill.Write(&logs.Entry{Kind: logs.KindMeta, Meta: c.LogMeta()})
		// Force the metadata entry through to the OS now: a full disk
		// (or any unwritable spill target) must fail the run at start,
		// not after the campaign has burned hours and hits finalize.
		if err := spill.Flush(); err != nil {
			spill.Close()
			return fmt.Errorf("core: spill %s: %w", cfg.SpillPath, err)
		}
		c.spill = spill
		c.bus.Attach(spill)
	}
	return nil
}

// newP2PNode builds one protocol node, drawing on the pool's recycler
// when the campaign is pooled.
func (c *Campaign) newP2PNode(endpoint *simnet.Node) *p2p.Node {
	if c.pool != nil {
		return c.pool.rec.NewNode(&c.cfg.P2P, c.network, endpoint, c.registry)
	}
	return p2p.NewNode(&c.cfg.P2P, c.network, endpoint, c.registry)
}

// Engine exposes the simulation engine (tests and diagnostics).
func (c *Campaign) Engine() *sim.Engine { return c.engine }

// Sharded always returns nil: campaigns run on one engine. It is kept
// only for perfbench, which checks it; delete it with Config.Shards.
func (c *Campaign) Sharded() any { return nil }

// StopSimulation halts a running Simulate after the current event.
// Simulate then returns an error wrapping sim.ErrStopped. Safe to call
// from an engine callback or from another goroutine.
func (c *Campaign) StopSimulation() {
	if c.engine != nil {
		c.engine.Stop()
	}
}

// Registry exposes the global block registry.
func (c *Campaign) Registry() *chain.Registry { return c.registry }

// Protocol exposes the consensus rule set the campaign runs under.
func (c *Campaign) Protocol() consensus.Protocol { return c.proto }

// Store exposes the transaction store.
func (c *Campaign) Store() *txgen.Store { return c.store }

// Collector exposes the streaming analysis pipeline.
func (c *Campaign) Collector() *analysis.Collector { return c.collector }

// AttachRecorder subscribes an additional consumer to the campaign's
// record bus (e.g. a custom spill writer or a record hasher). Attach
// before Run/Simulate: the bus offers no replay.
func (c *Campaign) AttachRecorder(r measure.Recorder) { c.bus.Attach(r) }

// Miner exposes the mining subsystem.
func (c *Campaign) Miner() *mining.Miner { return c.miner }

// Scenarios exposes the composed scenario plugins in composition order
// (legacy churn/withholding fields first). Nil after ReleaseNetwork.
func (c *Campaign) Scenarios() []scenario.Scenario { return c.scenarios }

// ScenarioTags returns the canonical tags of the composed scenarios.
// Unlike Scenarios it survives ReleaseNetwork.
func (c *Campaign) ScenarioTags() []string { return c.scenarioTags }

// Run executes the campaign and returns the analyzed results. It is
// Simulate followed by Analyze; callers that want to profile the two
// phases separately (cmd/ethbench) invoke them directly, and callers
// needing cancellation or live progress use RunContext.
func (c *Campaign) Run() (*Results, error) {
	return c.RunContext(context.Background(), RunOptions{})
}

// Simulate executes the simulation phase: the full virtual campaign,
// with every measurement record streaming through the bus. It also
// completes the spill file (chain dump) when one is configured. It is
// SimulateContext with a background context and no instrumentation.
func (c *Campaign) Simulate() error {
	return c.SimulateContext(context.Background(), RunOptions{})
}

// snapshotScenarios folds the composed scenarios into the result
// annotation: the canonical tags plus every reporter's metrics under
// "scenario_<name>_<metric>". Taken at the end of Simulate, while the
// plugin state is still alive (ReleaseNetwork drops it).
func (c *Campaign) snapshotScenarios() *analysis.ScenarioResult {
	if len(c.scenarios) == 0 {
		return nil
	}
	res := &analysis.ScenarioResult{Tags: c.scenarioTags}
	counts := make(map[string]int, len(c.scenarios))
	for _, s := range c.scenarios {
		counts[s.Name()]++
	}
	seen := make(map[string]int, len(counts))
	for _, s := range c.scenarios {
		seen[s.Name()]++
		// Single instances keep the plain prefix; duplicate names get
		// an ordinal (scenario_partition1_*, scenario_partition2_*) so
		// composed same-name scenarios never clobber each other.
		prefix := "scenario_" + s.Name()
		if counts[s.Name()] > 1 {
			prefix = fmt.Sprintf("scenario_%s%d", s.Name(), seen[s.Name()])
		}
		rep, ok := s.(scenario.MetricsReporter)
		if !ok {
			continue
		}
		for name, v := range rep.Metrics() {
			if res.Metrics == nil {
				res.Metrics = make(analysis.KeyMetrics)
			}
			res.Metrics[prefix+"_"+name] = v
		}
	}
	return res
}

// ReleaseNetwork drops the simulated network — nodes, links, per-peer
// caches, the event engine's slab, the workload drivers — so the
// analysis phase's working set is the record pipeline and the block
// registry, not the dead simulation graph. Call it between Simulate
// and Analyze on memory-constrained long campaigns; afterwards
// Engine() and Miner() return nil while Analyze, Dataset, Registry
// and Store keep working. The spill log (Config.SpillPath) is already
// complete when Simulate returns, so releasing loses none of it. Run
// does not call it, so the accessors stay valid on the default path.
func (c *Campaign) ReleaseNetwork() {
	if !c.simulated {
		return // the simulation still needs all of it
	}
	c.engine = nil
	c.network = nil
	c.miner = nil
	c.gen = nil
	c.vantages = nil
	c.regular = nil
	c.gateways = nil
	c.vantNodes = nil
	c.scenarios = nil
	c.scenarioEnv = nil
}

// Analyze finalizes every analyzer from the streamed state and the
// block registry — the analysis phase. One pass over the records
// already happened during Simulate; no analyzer re-reads them.
func (c *Campaign) Analyze() (*Results, error) {
	if !c.simulated {
		return nil, fmt.Errorf("core: Analyze before Simulate")
	}
	res := &Results{
		Dataset: c.dataset,
		Stats: RunStats{
			VirtualDuration: c.cfg.Duration,
			WallDuration:    c.simWall,
			Events:          c.events,
			Messages:        c.messages,
			BlocksCreated:   c.registry.Len() - 1,
			TxsCreated:      c.store.Len(),
			Nodes:           c.numNodes,
			BlockRecords:    c.collector.BlockRecords(),
			TxRecords:       c.collector.TxRecords(),
		},
		Scenarios: c.scenarioRes,
		Protocol:  c.cfg.ProtocolTag(),
	}
	if err := c.analyze(res); err != nil {
		return nil, err
	}
	return res, nil
}

// Dataset returns the campaign's analysis dataset: the campaign
// context always, plus the raw record slices when RetainRecords is
// set. Only primary (non-auxiliary) vantages participate in
// first-observation and delay analyses.
func (c *Campaign) Dataset() *analysis.Dataset { return c.dataset }

// LogMeta builds the metadata entry for campaign log files, letting
// cmd/ethanalyze reconstruct the analysis context from a log alone.
func (c *Campaign) LogMeta() *logs.Meta {
	meta := &logs.Meta{
		PoolNames:         c.cfg.PoolNames(),
		RedundancyVantage: c.cfg.RedundancyVantage,
		InterBlockNs:      int64(c.cfg.Mining.InterBlockTime),
		DurationNs:        int64(c.cfg.Duration),
		NetworkSize:       c.numNodes,
		Seed:              c.cfg.Seed,
		Scenarios:         c.scenarioTags,
		Protocol:          c.cfg.ProtocolTag(),
	}
	meta.Vantages = c.cfg.PrimaryVantages()
	return meta
}

// analyze assembles every per-figure result: record-driven analyses
// finalize from the collector's shared accumulators, chain-driven ones
// read the registry through the dataset.
func (c *Campaign) analyze(res *Results) error {
	dataset := c.dataset
	var err error
	res.Propagation, err = c.collector.Propagation()
	if err != nil {
		return fmt.Errorf("core: propagation analysis: %w", err)
	}
	if c.cfg.RedundancyVantage != "" {
		res.Redundancy, err = c.collector.Redundancy(c.numNodes)
		if err != nil {
			return fmt.Errorf("core: redundancy analysis: %w", err)
		}
	}
	res.FirstObs = c.collector.FirstObservation()
	res.PoolGeo = c.collector.PoolGeography(15)
	res.Empty = analysis.EmptyBlocks(dataset, 15)
	res.Forks = analysis.Forks(dataset)
	res.OneMiner = analysis.OneMinerForks(dataset, res.Forks)
	res.Sequences = analysis.Sequences(dataset, 6)
	res.Rewards = analysis.Rewards(dataset)
	res.Finality = analysis.Finality(dataset, 14)
	res.Throughput = analysis.Throughput(dataset)
	res.InterBlock = analysis.InterBlock(dataset)
	res.Withholding = c.collector.Withholding()
	res.GeoDelay = c.collector.GeoDelay()
	if c.cfg.EnableTxWorkload {
		res.Commit = c.collector.Commit()
		res.Ordering = c.collector.Ordering()
		res.TxProp = c.collector.TxPropagation()
		res.FeeMarket = c.collector.FeeMarket(func(h types.Hash) (uint64, bool) {
			tx := c.store.Get(h)
			if tx == nil {
				return 0, false
			}
			return tx.GasPrice, true
		})
	}
	return nil
}

// VantageRegionName returns the display name used for a vantage region
// in the paper's figures ("Eastern Asia", ...).
func VantageRegionName(r geo.Region) string { return r.String() }
