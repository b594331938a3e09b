package mining

import (
	"fmt"
	"math/rand"
	"time"

	"ethmeasure/internal/chain"
	"ethmeasure/internal/consensus"
	"ethmeasure/internal/p2p"
	"ethmeasure/internal/rlp"
	"ethmeasure/internal/sim"
	"ethmeasure/internal/txpool"
	"ethmeasure/internal/types"
)

// TxResolver maps a transaction hash back to the transaction object.
// The workload generator provides it so miners can return reverted
// transactions to their pools after a reorg.
type TxResolver func(types.Hash) *types.Transaction

// Config parameterises the mining process.
type Config struct {
	// InterBlockTime is the network-wide mean block interval. The
	// measurement period's value was 13.3 s (paper §III-C1).
	InterBlockTime time.Duration

	// HeadSwitchMean models pool-internal latency between a gateway
	// importing a new head and the pool's workers actually mining on
	// it (stratum job propagation, work restarts). Together with
	// network propagation it determines the fork rate.
	HeadSwitchMean time.Duration

	// BlockCapacity is the maximum number of transactions per block.
	BlockCapacity int

	// SiblingDelayMin/Max bound how long after the original block a
	// one-miner sibling is published.
	SiblingDelayMin time.Duration
	SiblingDelayMax time.Duration

	// TupleEvents schedules pool-malfunction events: each entry mines
	// that many same-height blocks at a uniformly random time during
	// the run (the paper saw one 4-tuple and one 7-tuple in a month).
	TupleEvents []int
}

// DefaultConfig returns mining parameters for the measurement period.
func DefaultConfig() Config {
	return Config{
		InterBlockTime:  13300 * time.Millisecond,
		HeadSwitchMean:  600 * time.Millisecond,
		BlockCapacity:   150,
		SiblingDelayMin: 300 * time.Millisecond,
		SiblingDelayMax: 2500 * time.Millisecond,
		TupleEvents:     nil,
	}
}

// Pool is the runtime state of one mining pool.
type Pool struct {
	ID   types.PoolID
	Spec PoolSpec

	gateways []*p2p.Node
	primary  *p2p.Node
	txs      *txpool.Pool
	strategy Strategy     // publication strategy, or nil (see AttachStrategy)
	jobHead  *types.Block // the public head the pool's fork choice settled on
	txHead   *types.Block // the block txs' inclusion state reflects
	rrGate   int          // round-robin gateway cursor for publishing
}

// tip returns the block the pool mines on: its strategy's private tip
// while it holds one (a withholding pool extends its private chain),
// the job head otherwise.
func (p *Pool) tip() *types.Block {
	if p.strategy != nil {
		if private := p.strategy.PreferredParent(); private != nil {
			return private
		}
	}
	return p.jobHead
}

// Miner drives block production for all pools on the simulation engine.
type Miner struct {
	cfg     Config
	engine  *sim.Engine
	reg     *chain.Registry
	proto   consensus.Protocol // the registry's rule set, cached
	rng     *rand.Rand
	pools   []*Pool
	cum     []float64
	issuer  *types.HashIssuer
	resolve TxResolver
	horizon sim.Time

	// OnBlockMined, when non-nil, fires for every block created
	// (including siblings and tuples) before it is published.
	OnBlockMined func(b *types.Block, pool *Pool)

	mined         int
	siblings      int
	emptyByPolicy int
	emptyStarved  int
}

// NewMiner creates the mining subsystem. Each spec must come with at
// least one gateway node (already wired into the p2p network); the
// first gateway is the pool's primary, whose chain view and txpool
// drive job selection.
func NewMiner(
	cfg Config,
	engine *sim.Engine,
	reg *chain.Registry,
	specs []PoolSpec,
	gateways [][]*p2p.Node,
	issuer *types.HashIssuer,
	resolve TxResolver,
) (*Miner, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("mining: no pool specs")
	}
	if len(specs) != len(gateways) {
		return nil, fmt.Errorf("mining: %d specs but %d gateway sets", len(specs), len(gateways))
	}
	if cfg.InterBlockTime <= 0 {
		return nil, fmt.Errorf("mining: inter-block time must be positive")
	}
	if cfg.BlockCapacity < 0 {
		return nil, fmt.Errorf("mining: negative block capacity")
	}
	m := &Miner{
		cfg:     cfg,
		engine:  engine,
		reg:     reg,
		proto:   reg.Protocol(),
		rng:     engine.RNG("mining"),
		issuer:  issuer,
		resolve: resolve,
	}
	total := 0.0
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
		if len(gateways[i]) == 0 {
			return nil, fmt.Errorf("mining: pool %s has no gateway nodes", specs[i].Name)
		}
		pool := &Pool{
			ID:       types.PoolID(i + 1),
			Spec:     specs[i],
			gateways: gateways[i],
			primary:  gateways[i][0],
			txs:      txpool.New(),
			jobHead:  reg.Genesis(),
			txHead:   reg.Genesis(),
		}
		m.pools = append(m.pools, pool)
		total += specs[i].Power
		m.cum = append(m.cum, total)

		m.hookGateway(pool)
	}
	return m, nil
}

// hookGateway wires the pool's primary gateway events into job and
// txpool management.
func (m *Miner) hookGateway(pool *Pool) {
	pool.primary.OnNewHead = func(b *types.Block) {
		// Pool-internal job switch latency before workers move to the
		// new head. The pool's own blocks bypass this via publish.
		delay := sim.Jittered(m.rng, m.cfg.HeadSwitchMean, 0.8)
		m.engine.After(delay, func() {
			m.adopt(pool, b)
			m.syncTxs(pool)
		})
	}
	pool.primary.TxSink = func(tx *types.Transaction) {
		pool.txs.Add(tx)
	}
}

// adopt moves the pool's job head to head if the protocol's fork
// choice prefers it.
func (m *Miner) adopt(pool *Pool, head *types.Block) {
	if m.proto.Prefer(head, pool.jobHead) {
		pool.jobHead = head
	}
}

// syncTxs reconciles the pool's txpool from txHead to the tip the pool
// mines on: transactions of blocks that left that chain return to the
// pool, those of blocks that joined it are marked included, so the
// next block selects against its own ancestry. It runs after every
// move of the job head or of a strategy's private tip.
func (m *Miner) syncTxs(pool *Pool) {
	tip := pool.tip()
	if tip.Hash == pool.txHead.Hash {
		return
	}
	abandoned, adopted := chain.Reorg(m.reg, pool.txHead, tip, 64)
	for _, b := range abandoned {
		pool.txs.UnmarkIncluded(m.resolveAll(b.TxHashes))
	}
	for _, b := range adopted {
		pool.txs.MarkIncluded(m.resolveAll(b.TxHashes))
	}
	pool.txHead = tip
}

// sendersBetween returns the senders of the transactions in the blocks
// that one of a and b has in its chain and the other has not: the
// senders whose nonce state differs between the two. It is nil when a
// and b are the same block.
func (m *Miner) sendersBetween(a, b *types.Block) map[types.AccountID]bool {
	if a.Hash == b.Hash {
		return nil
	}
	senders := make(map[types.AccountID]bool)
	abandoned, adopted := chain.Reorg(m.reg, a, b, 64)
	for _, blk := range append(abandoned, adopted...) {
		for _, tx := range m.resolveAll(blk.TxHashes) {
			senders[tx.Sender] = true
		}
	}
	return senders
}

func (m *Miner) resolveAll(hashes []types.Hash) []*types.Transaction {
	if m.resolve == nil || len(hashes) == 0 {
		return nil
	}
	out := make([]*types.Transaction, 0, len(hashes))
	for _, h := range hashes {
		if tx := m.resolve(h); tx != nil {
			out = append(out, tx)
		}
	}
	return out
}

// Start schedules the mining process up to the given horizon, plus any
// configured tuple-malfunction events.
func (m *Miner) Start(horizon sim.Time) {
	m.horizon = horizon
	m.scheduleNext()
	for _, k := range m.cfg.TupleEvents {
		k := k
		at := time.Duration(m.rng.Int63n(int64(horizon)))
		m.engine.Schedule(at, func() { m.mineTuple(k) })
	}
}

// Mined returns how many blocks have been produced (incl. siblings).
func (m *Miner) Mined() int { return m.mined }

// Siblings returns how many intentional one-miner sibling blocks were
// produced.
func (m *Miner) Siblings() int { return m.siblings }

// EmptyByPolicy returns how many blocks were mined empty by deliberate
// pool policy (the paper's selfish behaviour).
func (m *Miner) EmptyByPolicy() int { return m.emptyByPolicy }

// EmptyStarved returns how many blocks came out empty because the
// pool's transaction pool had nothing executable at mining time.
func (m *Miner) EmptyStarved() int { return m.emptyStarved }

func (m *Miner) scheduleNext() {
	wait := sim.ExpDuration(m.rng, m.cfg.InterBlockTime)
	if m.engine.Now()+wait > m.horizon {
		return
	}
	m.engine.After(wait, func() {
		m.mineOne()
		m.scheduleNext()
	})
}

// samplePool draws a winner proportionally to hash power.
func (m *Miner) samplePool() *Pool {
	total := m.cum[len(m.cum)-1]
	x := m.rng.Float64() * total
	for i, c := range m.cum {
		if x < c {
			return m.pools[i]
		}
	}
	return m.pools[len(m.pools)-1]
}

// mineOne produces the next block of the global Poisson process and,
// with the pool's configured probability, schedules sibling blocks at
// the same height (one-miner fork).
func (m *Miner) mineOne() {
	pool := m.samplePool()
	parent := pool.tip()
	empty := m.rng.Float64() < pool.Spec.EmptyRate
	b := m.buildBlock(pool, parent, empty, nil)
	if b.Empty() {
		if empty {
			m.emptyByPolicy++
		} else {
			m.emptyStarved++
		}
	}
	if m.maybeIntercept(pool, b) {
		return // intercepted: no immediate publish, no siblings
	}
	m.publish(pool, b, true /* ownJobAdvance */)

	if m.rng.Float64() >= pool.Spec.SiblingRate {
		return
	}
	extras := 1
	if m.rng.Float64() < pool.Spec.SiblingTripleFrac {
		extras = 2
	}
	for i := 0; i < extras; i++ {
		sameTx := m.rng.Float64() < pool.Spec.SiblingSameTxFrac
		delay := m.siblingDelay()
		m.engine.After(delay, func() { m.mineSibling(pool, b, sameTx) })
	}
}

func (m *Miner) siblingDelay() time.Duration {
	lo, hi := m.cfg.SiblingDelayMin, m.cfg.SiblingDelayMax
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(m.rng.Int63n(int64(hi-lo)))
}

// mineSibling publishes an alternative version of original at the same
// height, provided the chain has not moved past the window in which
// the sibling could still earn anything.
func (m *Miner) mineSibling(pool *Pool, original *types.Block, sameTx bool) {
	parent, ok := m.reg.Get(original.ParentHash)
	if !ok {
		return
	}
	// Under reference-paying protocols the window is the reference
	// (uncle) depth; under no-reference protocols a sibling is only
	// worth publishing while it can still win the fork race at the tip.
	window := m.proto.MaxReferenceDepth()
	if window == 0 {
		window = 1
	}
	if pool.jobHead.Number > parent.Number+window {
		return // too old to ever be rewarded; pointless to publish
	}
	var b *types.Block
	if sameTx {
		// Same transaction set as the original (paper §V: 56% of cases).
		txs := append([]types.Hash{}, original.TxHashes...)
		b = m.buildBlock(pool, parent, len(txs) == 0, txs)
	} else {
		// Fresh selection: the original's txs are marked included in the
		// pool's txpool, so Executable yields a distinct set.
		b = m.buildBlock(pool, parent, false, nil)
	}
	m.siblings++
	m.publish(pool, b, false /* sibling never advances the job */)
}

// mineTuple simulates a pool partition/malfunction: k blocks at the
// same height in quick succession from one (power-weighted) pool.
func (m *Miner) mineTuple(k int) {
	if k < 2 {
		return
	}
	pool := m.samplePool()
	parent := pool.jobHead
	for i := 0; i < k; i++ {
		delay := time.Duration(i) * 400 * time.Millisecond
		first := i == 0
		m.engine.After(delay, func() {
			b := m.buildBlock(pool, parent, false, nil)
			m.publish(pool, b, first)
		})
	}
}

// buildBlock assembles a block for pool extending parent. When txHashes
// is nil and the block is not empty, transactions come from the pool's
// executable set, less the senders whose nonces differ between parent
// and the txpool's head (a sibling or tuple block builds on the parent
// of the pool's tip). The wire size derives from the block's actual
// RLP encoding.
func (m *Miner) buildBlock(pool *Pool, parent *types.Block, empty bool, txHashes []types.Hash) *types.Block {
	var selected []*types.Transaction
	if txHashes == nil && !empty {
		selected = pool.txs.Executable(m.cfg.BlockCapacity, m.sendersBetween(parent, pool.txHead))
		txHashes = make([]types.Hash, len(selected))
		for i, tx := range selected {
			txHashes[i] = tx.Hash
		}
	}
	uncles := pool.primary.View().UncleCandidatesFor(parent, m.proto.MaxReferencesPerBlock())
	b := &types.Block{
		Hash:       m.issuer.Next(),
		Number:     parent.Number + 1,
		ParentHash: parent.Hash,
		Miner:      pool.ID,
		TxHashes:   txHashes,
		Uncles:     uncles,
		Difficulty: 1,
		MinedAt:    m.engine.Now(),
	}
	b.Size = rlp.BlockWireSize(b, selected)
	return b
}

// publish registers the block and broadcasts it. advanceJob moves the
// pool's job head onto it: the pool learns of its own block instantly.
func (m *Miner) publish(pool *Pool, b *types.Block, advanceJob bool) {
	if !m.register(pool, b) {
		return
	}
	if advanceJob {
		m.adopt(pool, b)
		m.syncTxs(pool)
	}
	m.broadcast(pool, b)
}

// register adds a freshly mined block to the global registry and
// counts it. Every mined block is registered, withheld ones included
// (they exist, they are just not broadcast yet).
func (m *Miner) register(pool *Pool, b *types.Block) bool {
	if err := m.reg.Add(b); err != nil {
		// Only possible on internal inconsistency; drop the block.
		return false
	}
	m.mined++
	if m.OnBlockMined != nil {
		m.OnBlockMined(b, pool)
	}
	return true
}

// broadcast sends a registered block from one of the pool's gateways
// (round-robin across gateways, matching pools' practice of publishing
// through geographically spread gateways).
func (m *Miner) broadcast(pool *Pool, b *types.Block) {
	gw := pool.gateways[pool.rrGate%len(pool.gateways)]
	pool.rrGate++
	gw.PublishBlock(b)
	// Public progress may trigger a competing strategy's override burst.
	m.notifyPublicBlock(pool, b)
}
