package core

import (
	"fmt"
	"time"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/chain"
	"ethmeasure/internal/consensus"
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

	// ModelRevision is the model revision the campaign ran under, 0
	// for a log written before revisions were recorded.
	ModelRevision int
}

// ModelRevision numbers the simulation model: a change that alters what
// a campaign produces from a given config and seed bumps it, with the
// REV line of testdata/fingerprints.golden that the fingerprint tests
// hold it to. Campaign logs record it; logs written before revision 2,
// which keyed every message delay by the message, carry none.
const ModelRevision = 2

// Campaign is one configured measurement run.
type Campaign struct {
	cfg Config

	engine    *sim.Engine
	network   *simnet.Network
	registry  *chain.Registry
	store     *txgen.Store
	miner     *mining.Miner
	gen       *txgen.Generator
	regular   []*p2p.Node
	gateways  [][]*p2p.Node
	vantNodes []*p2p.Node

	// Composed scenario plugins, their shared environment, and the
	// result annotation snapshotted at the end of SimulateContext.
	scenarios    []scenario.Scenario
	scenarioEnv  *scenario.Env
	scenarioTags []string
	scenarioRes  *analysis.ScenarioResult

	// Record pipeline: every vantage writes to the bus, which fans out
	// to the streaming analysis collector and the optional binary spill
	// writer.
	bus       *measure.Bus
	collector *analysis.Collector
	spill     *logs.FileWriter // nil unless Config.SpillPath set
	dataset   *analysis.Dataset

	simulated bool
	simWall   time.Duration

	// instrFP is the record fingerprinter of an instrumented run
	// (SimulateContext with checkpointing), kept for Fingerprints.
	instrFP *logs.RecordFingerprinter

	// Snapshots taken while the simulation state is still alive, so
	// Analyze and logMeta keep working after ReleaseNetwork.
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
	c.engine = sim.NewEngine(cfg.Seed)
	c.network = simnet.New(c.engine, cfg.Latency)
	blockIssuer := types.NewHashIssuer(1)
	c.registry = chain.NewRegistry(cfg.GenesisNumber, blockIssuer)
	c.registry.SetProtocol(proto)
	c.store = txgen.NewStore()

	// Record pipeline: the dataset carries the campaign context the
	// analysis finalizers need.
	c.dataset = &analysis.Dataset{
		Vantages:   cfg.PrimaryVantages(),
		Chain:      c.registry,
		PoolNames:  cfg.PoolNames(),
		InterBlock: cfg.Mining.InterBlockTime,
		Duration:   cfg.Duration,
	}
	c.collector = analysis.NewCollector(c.dataset, cfg.RedundancyVantage)
	c.bus = measure.NewBus(c.collector)

	placeRNG := c.engine.RNG("placement")
	speedRNG := c.engine.RNG("procspeed")

	// Regular nodes, with mixed hardware speeds.
	for i := 0; i < cfg.NumNodes; i++ {
		region := cfg.NodeDistribution.Sample(placeRNG)
		endpoint, err := c.network.AddNode(region, cfg.NodeBandwidth)
		if err != nil {
			return err
		}
		node := p2p.NewNode(&cfg.P2P, c.network, endpoint, c.registry)
		lo, hi := cfg.NodeProcSpeedMin, cfg.NodeProcSpeedMax
		if hi > lo {
			node.SetProcSpeed(lo + speedRNG.Float64()*(hi-lo))
		} else {
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
			gw := p2p.NewNode(&cfg.P2P, c.network, endpoint, c.registry)
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
		node := p2p.NewNode(&cfg.P2P, c.network, endpoint, c.registry)
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
	// SimulateContext.
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
	// The graph is complete: only churn rewires it from here on.
	p2p.PackLinks(c.network)
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
		spill.Write(&logs.Entry{Kind: logs.KindMeta, Meta: c.logMeta()})
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

// Engine exposes the simulation engine (tests and diagnostics).
func (c *Campaign) Engine() *sim.Engine { return c.engine }

// Sharded always returns nil: campaigns run on one engine. It is kept
// only for perfbench, which checks it; delete it with Config.Shards.
func (c *Campaign) Sharded() any { return nil }

// Miner exposes the mining subsystem.
func (c *Campaign) Miner() *mining.Miner { return c.miner }

// ScenarioTags returns the canonical tags of the composed scenarios.
// It survives ReleaseNetwork.
func (c *Campaign) ScenarioTags() []string { return c.scenarioTags }

// snapshotScenarios folds the composed scenarios into the result
// annotation: the canonical tags plus every reporter's metrics under
// "scenario_<name>_<metric>". Taken at the end of SimulateContext,
// while the plugin state is still alive (ReleaseNetwork drops it).
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
// registry, not the dead simulation graph. Call it between
// SimulateContext and Analyze on memory-constrained long campaigns;
// afterwards Engine() and Miner() return nil while Analyze keeps
// working. The spill log (Config.SpillPath) is already complete when
// SimulateContext returns, so releasing loses none of it. RunContext
// does not call it, so the accessors stay valid on the default path.
func (c *Campaign) ReleaseNetwork() {
	if !c.simulated {
		return // the simulation still needs all of it
	}
	c.engine = nil
	c.network = nil
	c.miner = nil
	c.gen = nil
	c.regular = nil
	c.gateways = nil
	c.vantNodes = nil
	c.scenarios = nil
	c.scenarioEnv = nil
}

// Analyze finalizes every analyzer from the streamed state and the
// block registry — the analysis phase. One pass over the records
// already happened during SimulateContext; no analyzer re-reads them.
func (c *Campaign) Analyze() (*Results, error) {
	if !c.simulated {
		return nil, fmt.Errorf("core: Analyze before SimulateContext")
	}
	res, err := analyze(c.collector, c.dataset, c.cfg.RedundancyVantage, c.numNodes,
		c.cfg.EnableTxWorkload, func(h types.Hash) (uint64, bool) {
			tx := c.store.Get(h)
			if tx == nil {
				return 0, false
			}
			return tx.GasPrice, true
		})
	if err != nil {
		return nil, err
	}
	res.Stats.WallDuration = c.simWall
	res.Stats.Events = c.events
	res.Stats.Messages = c.messages
	res.Stats.TxsCreated = c.store.Len()
	res.Scenarios = c.scenarioRes
	res.Protocol = c.cfg.ProtocolTag()
	res.ModelRevision = ModelRevision
	return res, nil
}

// logMeta builds the metadata entry for campaign log files, letting
// AnalyzeLog reconstruct the analysis context from a log alone.
func (c *Campaign) logMeta() *logs.Meta {
	meta := &logs.Meta{
		PoolNames:         c.cfg.PoolNames(),
		RedundancyVantage: c.cfg.RedundancyVantage,
		InterBlockNs:      int64(c.cfg.Mining.InterBlockTime),
		DurationNs:        int64(c.cfg.Duration),
		NetworkSize:       c.numNodes,
		Seed:              c.cfg.Seed,
		Scenarios:         c.scenarioTags,
		Protocol:          c.cfg.ProtocolTag(),
		ModelRevision:     ModelRevision,
	}
	meta.Vantages = c.cfg.PrimaryVantages()
	return meta
}
