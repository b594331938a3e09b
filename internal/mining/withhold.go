package mining

import (
	"fmt"

	"ethmeasure/internal/consensus"
	"ethmeasure/internal/types"
)

// Strategy customises one pool's block-publication behaviour. A
// strategy is bound to exactly one pool via Miner.AttachStrategy; the
// miner consults it on every block the pool mines and on every block a
// competing pool publishes. The built-in Withholding strategy is the
// classic selfish-mining attack; scenario plugins supply others.
//
// All hooks run synchronously on the single-threaded simulation engine
// and must be deterministic: no wall-clock time, no RNG outside the
// engine's named streams.
type Strategy interface {
	// PreferredParent returns the block the pool should mine on instead
	// of its public job head, or nil to follow the public head. Selfish
	// strategies return their private tip here. The pool's txpool
	// follows this block, so the pool selects transactions against its
	// private chain.
	PreferredParent() *types.Block

	// OnMined intercepts a freshly mined block before publication: the
	// block is registered globally but NOT broadcast. The returned burst
	// (possibly including b itself) is published back-to-back
	// immediately. Returning nil keeps the block private.
	OnMined(b *types.Block) []*types.Block

	// OnPublicBlock reacts to a block published by a competing pool,
	// returning private blocks to release in response (the "race"
	// branch of selfish mining), or nil.
	OnPublicBlock(b *types.Block) []*types.Block
}

// ProtocolAware is implemented by strategies whose decisions depend on
// the consensus rules (reward schedule, reference policy). The miner
// binds its protocol before the strategy's first hook runs.
type ProtocolAware interface {
	BindProtocol(consensus.Protocol)
}

// AttachStrategy binds a publication strategy to the named pool. At
// most one strategy per pool; unknown pools are rejected.
// ProtocolAware strategies receive the miner's consensus protocol
// before any hook fires.
func (m *Miner) AttachStrategy(poolName string, s Strategy) error {
	for _, p := range m.pools {
		if p.Spec.Name != poolName {
			continue
		}
		if p.strategy != nil {
			return fmt.Errorf("mining: pool %q already has a strategy", poolName)
		}
		if pa, ok := s.(ProtocolAware); ok {
			pa.BindProtocol(m.proto)
		}
		p.strategy = s
		return nil
	}
	return fmt.Errorf("mining: unknown pool %q", poolName)
}

// Withholding implements the classic selfish-mining strategy (Eyal &
// Sirer; the paper's §III-D cites the FAW variant when arguing that
// Sparkpool's 9-block runs were NOT a withholding attack because "
// blocks were not announced all together"): a pool keeps its blocks
// private, extends its private chain, and publishes in a burst either
// when the public chain threatens to catch up or when the private lead
// reaches a cap.
type Withholding struct {
	depth int // publish when the private lead reaches this

	// proto is the consensus rule set, bound by the miner on attach.
	// The withholder consults its reward schedule: under protocols
	// that pay reference (uncle) rewards a beaten private chain is
	// still worth publishing, under no-reference protocols it is
	// worthless and gets discarded instead.
	proto consensus.Protocol

	private []*types.Block // unpublished blocks, oldest first

	bursts    int // burst releases (diagnostics)
	released  int // blocks published through bursts
	discarded int // beaten private blocks dropped unpublished
}

var (
	_ Strategy      = (*Withholding)(nil)
	_ ProtocolAware = (*Withholding)(nil)
)

// NewWithholding creates the selfish block-withholding strategy with
// the given private-chain release depth (must be at least 2).
func NewWithholding(depth int) (*Withholding, error) {
	if depth < 2 {
		return nil, fmt.Errorf("mining: withholding depth %d < 2", depth)
	}
	return &Withholding{depth: depth}, nil
}

// Bursts returns how many burst releases occurred.
func (w *Withholding) Bursts() int { return w.bursts }

// Released returns how many blocks were published through bursts.
func (w *Withholding) Released() int { return w.released }

// BindProtocol implements ProtocolAware.
func (w *Withholding) BindProtocol(p consensus.Protocol) { w.proto = p }

// paysReferences reports whether the bound protocol rewards referenced
// side blocks. Unbound strategies assume Ethereum's schedule.
func (w *Withholding) paysReferences() bool {
	if w.proto == nil {
		return true
	}
	return w.proto.ReferenceReward(1) > 0
}

// tip returns the private tip, or nil when nothing is withheld.
func (w *Withholding) tip() *types.Block {
	if len(w.private) == 0 {
		return nil
	}
	return w.private[len(w.private)-1]
}

// PreferredParent mines on the private tip when one exists.
func (w *Withholding) PreferredParent() *types.Block { return w.tip() }

// OnMined withholds the freshly mined block, bursting the private
// chain when the lead cap is reached.
func (w *Withholding) OnMined(b *types.Block) []*types.Block {
	w.private = append(w.private, b)
	if len(w.private) >= w.depth {
		return w.flush()
	}
	return nil
}

// OnPublicBlock reacts to a competing public block: when the public
// chain gets within one block of the private tip, the withholder
// publishes everything to override it (the "race" branch of selfish
// mining). Under a protocol with no reference rewards, a private chain
// the public chain has already overtaken can never earn anything — it
// is discarded instead of published.
func (w *Withholding) OnPublicBlock(b *types.Block) []*types.Block {
	tip := w.tip()
	if tip == nil {
		return nil
	}
	if !w.paysReferences() && b.TotalDiff > tip.TotalDiff {
		// Strictly overtaken only: on a tie the private chain can still
		// win the first-seen race at every node it reaches first, so the
		// race branch below publishes it (Eyal-Sirer's race on Bitcoin).
		w.discarded += len(w.private)
		w.private = nil
		return nil
	}
	if b.TotalDiff+1 >= tip.TotalDiff {
		return w.flush()
	}
	return nil
}

func (w *Withholding) flush() []*types.Block {
	out := w.private
	w.private = nil
	w.bursts++
	w.released += len(out)
	return out
}

// maybeIntercept hands a freshly mined block to the pool's strategy.
// It reports whether the block was intercepted (registered but not
// broadcast) and publishes any burst the strategy released.
func (m *Miner) maybeIntercept(pool *Pool, b *types.Block) bool {
	if pool.strategy == nil {
		return false
	}
	if m.register(pool, b) {
		m.publishBurst(pool, pool.strategy.OnMined(b))
	}
	return true
}

// notifyPublicBlock lets every competing pool's strategy react to
// public progress.
func (m *Miner) notifyPublicBlock(from *Pool, b *types.Block) {
	for _, p := range m.pools {
		if p != from && p.strategy != nil {
			m.publishBurst(p, p.strategy.OnPublicBlock(b))
		}
	}
}

// publishBurst broadcasts withheld blocks back-to-back — the
// "announced all together" signature the paper looked for and did not
// find in Sparkpool's behaviour — and then reconciles the pool's
// txpool with its new tip. A strategy hook that released nothing may
// still have moved the tip (a block kept private, a private chain
// discarded), so the txpool is reconciled after every hook.
func (m *Miner) publishBurst(pool *Pool, burst []*types.Block) {
	for _, b := range burst {
		m.adopt(pool, b)
		// Burst releases are public progress too: competing strategies
		// see them through broadcast (OnPublicBlock's contract).
		// Recursion terminates because a strategy's flush empties its
		// private chain before returning.
		m.broadcast(pool, b)
	}
	m.syncTxs(pool)
}
