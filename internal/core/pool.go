package core

import (
	"ethmeasure/internal/analysis"
	"ethmeasure/internal/geo"
	"ethmeasure/internal/p2p"
	"ethmeasure/internal/sim"
	"ethmeasure/internal/simnet"
)

// Pool recycles the expensive run-scoped state of finished campaigns
// across sequential runs on one worker: the engine's event slab, the
// simulated network's endpoint table and transaction floods, the p2p
// node/edge graph with its known-hash caches, and the streaming
// collector's arrival index. A warm build re-seeds
// every RNG stream and re-derives topology and placement from the new
// config, so a pooled campaign is bit-identical to a cold one — only
// allocation capacity is carried over, and capacity is never visible
// to the simulation (the equivalence suite proves this, including
// across consecutive runs with differing node counts and protocols).
//
// A Pool serves one goroutine at a time; pooled state is never shared
// between concurrent runs. Sweep workers and the campaign server give
// each worker its own pool. What is shared across workers is only the
// immutable latency-model cache (geo.SharedDefaultLatencyModel), which
// is read-only by construction.
//
// Recycle contract: once a campaign is recycled, neither it nor any
// Results derived from it may be used again — the collector whose
// accumulators back the analysis finalizers is reset in place for the
// next run. Callers that keep Results (or retained records) alive must
// simply not recycle that campaign; an unrecycled campaign costs
// nothing beyond what cold construction already cost.
type Pool struct {
	engine    *sim.Engine
	network   *simnet.Network
	rec       *p2p.Recycler
	collector *analysis.Collector

	recycled uint64
}

// PoolStats reports how much reuse a pool has delivered.
type PoolStats struct {
	// Recycled counts campaigns returned through Recycle.
	Recycled uint64
	// NodesReused and EdgesReused count p2p graph objects handed out
	// from the freelists instead of allocated.
	NodesReused uint64
	EdgesReused uint64
}

// NewPool returns an empty pool: its first campaign builds cold and
// seeds the pool when recycled.
func NewPool() *Pool { return &Pool{rec: p2p.NewRecycler()} }

// Stats returns the pool's reuse counters.
func (p *Pool) Stats() PoolStats {
	rs := p.rec.Stats()
	return PoolStats{
		Recycled:    p.recycled,
		NodesReused: rs.NodesReused,
		EdgesReused: rs.EdgesReused,
	}
}

// NewCampaign is core.NewCampaign drawing recycled state from the
// pool. The pooled state is detached from the pool for the campaign's
// lifetime, so a build error or an abandoned (never recycled) campaign
// simply leaves the pool empty — the next campaign builds cold.
func (p *Pool) NewCampaign(cfg Config) (*Campaign, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Campaign{cfg: cfg, pool: p}
	if err := c.build(); err != nil {
		return nil, err
	}
	return c, nil
}

// takeEngine detaches and resets the pooled engine, or builds fresh.
func (p *Pool) takeEngine(seed int64) *sim.Engine {
	if e := p.engine; e != nil {
		p.engine = nil
		e.Reset(seed)
		return e
	}
	return sim.NewEngine(seed)
}

// takeNetwork detaches and resets the pooled network, or builds fresh.
func (p *Pool) takeNetwork(engine *sim.Engine, latency *geo.LatencyModel) *simnet.Network {
	if n := p.network; n != nil {
		p.network = nil
		n.Reset(engine, latency)
		return n
	}
	return simnet.New(engine, latency)
}

// takeCollector detaches and resets the pooled collector, or builds
// fresh.
func (p *Pool) takeCollector(ds *analysis.Dataset, redundancyVantage string) *analysis.Collector {
	if col := p.collector; col != nil {
		p.collector = nil
		col.Reset(ds, redundancyVantage)
		return col
	}
	return analysis.NewCollector(ds, redundancyVantage)
}

// Recycle harvests a finished campaign's run-scoped state back into
// the pool. The campaign — and, per the contract above, any Results
// derived from it — must no longer be used afterwards; Recycle nils
// the campaign's simulation fields so accidental reuse fails loudly
// instead of corrupting the next run. Recycling a campaign that
// already released its network (or was recycled before) is a no-op,
// as is recycling a campaign built by a different pool.
func (p *Pool) Recycle(c *Campaign) {
	if c == nil || c.pool != p || c.engine == nil {
		return
	}
	p.engine = c.engine
	p.network = c.network
	p.collector = c.collector
	p.rec.Reclaim(c.regular, c.vantNodes)
	for _, gws := range c.gateways {
		p.rec.Reclaim(gws)
	}
	// Sweep the event slab now, at recycle time, so the next warm
	// build is pure reassignment (Reset on an already swept engine
	// skips the slab clear). The seed passed here is irrelevant —
	// takeEngine re-seeds for the next run.
	p.engine.Reset(p.engine.Seed())
	p.recycled++
	c.engine, c.network = nil, nil
	c.collector, c.bus, c.recorder = nil, nil, nil
	c.miner, c.gen = nil, nil
	c.vantages, c.regular, c.gateways, c.vantNodes = nil, nil, nil, nil
	c.scenarios, c.scenarioEnv = nil, nil
}
