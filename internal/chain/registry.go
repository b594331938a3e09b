// Package chain implements the blockchain substrate: a global registry
// of every block produced during a run, per-node chain views applying
// the configured consensus protocol's fork-choice and
// reference-validity rules (internal/consensus; Ethereum by default),
// and the substrate behind the paper's Table III fork classifier and
// the one-miner-fork analysis (§III-C4, §III-C5).
package chain

import (
	"fmt"

	"ethmeasure/internal/consensus"
	"ethmeasure/internal/types"
)

// Registry is the global, append-only store of all blocks created in a
// simulation, including every fork. The analysis pipeline classifies
// forks and determines the final main chain from it. It is the
// simulation-wide source of truth; per-node state lives in View.
type Registry struct {
	blocks  map[types.Hash]*types.Block
	genesis *types.Block
	order   []*types.Block // insertion order, deterministic iteration
	// head is the protocol's preferred block so far, folded in
	// creation order as blocks are added (ties keep the earliest).
	head *types.Block

	// proto is the consensus rule set the chain runs under: fork
	// choice, reference (uncle) validity, reward schedule. Ethereum
	// unless SetProtocol installs another before blocks are added.
	proto consensus.Protocol
	// refDepth caches proto.MaxReferenceDepth() — protocol parameters
	// are immutable, and ValidUncle sits on the miner's uncle-sweep
	// hot path where a per-call interface dispatch is measurable.
	refDepth uint64
}

// NewRegistry creates a registry seeded with a genesis block at the
// given starting height (the paper's campaign began at 7,479,573).
func NewRegistry(genesisNumber uint64, issuer *types.HashIssuer) *Registry {
	return NewRegistryWithGenesis(genesisNumber, issuer.Next())
}

// NewRegistryWithGenesis creates a registry whose genesis block has an
// explicit hash. The log pipeline uses it to rebuild a registry from a
// chain dump.
func NewRegistryWithGenesis(genesisNumber uint64, genesisHash types.Hash) *Registry {
	g := &types.Block{
		Hash:       genesisHash,
		Number:     genesisNumber,
		Difficulty: 1,
		TotalDiff:  1,
		Size:       types.BlockSize(0),
	}
	r := &Registry{
		blocks:   make(map[types.Hash]*types.Block, 1024),
		genesis:  g,
		proto:    consensus.Ethereum(),
		refDepth: consensus.EthereumUncleDepth,
	}
	r.insert(g)
	return r
}

// Protocol returns the consensus rule set the chain runs under.
func (r *Registry) Protocol() consensus.Protocol { return r.proto }

// SetProtocol installs a consensus protocol. It must be called before
// any block beyond genesis is added: views and analyses derive their
// rules from the registry, and switching rules mid-chain would make
// fork choice inconsistent.
func (r *Registry) SetProtocol(p consensus.Protocol) {
	if p == nil {
		panic("chain: nil protocol")
	}
	if len(r.order) > 1 {
		panic("chain: SetProtocol after blocks were added")
	}
	r.proto = p
	r.refDepth = p.MaxReferenceDepth()
}

func (r *Registry) insert(b *types.Block) {
	r.blocks[b.Hash] = b
	r.order = append(r.order, b)
	if r.head == nil || r.proto.Prefer(b, r.head) {
		r.head = b
	}
}

// Add registers a newly mined block. The parent must already exist and
// the block's number must be parent.Number+1; Add fills in TotalDiff.
func (r *Registry) Add(b *types.Block) error {
	if _, dup := r.blocks[b.Hash]; dup {
		return fmt.Errorf("chain: duplicate block %s", b.Hash)
	}
	parent, ok := r.blocks[b.ParentHash]
	if !ok {
		return fmt.Errorf("chain: block %s has unknown parent %s", b.Hash, b.ParentHash)
	}
	if b.Number != parent.Number+1 {
		return fmt.Errorf("chain: block %s number %d does not extend parent at %d",
			b.Hash, b.Number, parent.Number)
	}
	if b.Difficulty == 0 {
		b.Difficulty = 1
	}
	b.TotalDiff = parent.TotalDiff + b.Difficulty
	r.insert(b)
	return nil
}

// Genesis returns the genesis block.
func (r *Registry) Genesis() *types.Block { return r.genesis }

// Get returns a block by hash.
func (r *Registry) Get(h types.Hash) (*types.Block, bool) {
	b, ok := r.blocks[h]
	return b, ok
}

// MustGet returns a block by hash, panicking if absent. For internal
// invariants where absence indicates a bug.
func (r *Registry) MustGet(h types.Hash) *types.Block {
	b, ok := r.blocks[h]
	if !ok {
		panic(fmt.Sprintf("chain: missing block %s", h))
	}
	return b
}

// Len returns the number of blocks in the registry, including genesis.
func (r *Registry) Len() int { return len(r.blocks) }

// Blocks iterates all blocks in creation order.
func (r *Registry) Blocks(fn func(*types.Block) bool) {
	for _, b := range r.order {
		if !fn(b) {
			return
		}
	}
}

// Head returns the tip of the final main chain under the protocol's
// fork-choice rule (ties broken by earliest creation).
func (r *Registry) Head() *types.Block { return r.head }

// MainChain returns the main chain from genesis to head, inclusive, in
// ascending height order.
func (r *Registry) MainChain() []*types.Block {
	head := r.Head()
	n := int(head.Number-r.genesis.Number) + 1
	out := make([]*types.Block, n)
	cur := head
	for i := n - 1; i >= 0; i-- {
		out[i] = cur
		if i > 0 {
			cur = r.MustGet(cur.ParentHash)
		}
	}
	return out
}

// ValidUncle checks the protocol's reference-validity rules for
// candidate uncle u referenced from a block that would extend parent:
//
//  1. u's parent must be an ancestor of the new block within the
//     protocol's reference window (so u is a "sibling branch" child).
//  2. u must not itself be an ancestor of the new block.
//  3. u must not already be referenced as an uncle in the ancestor
//     window.
//
// Under Ethereum's 6-generation window this is the rule that makes
// forks of length ≥ 2 unrecognizable as uncles (their parents are
// side-chain blocks, not ancestors), exactly as the paper observes in
// Table III. Protocols without references (MaxReferenceDepth 0) accept
// no uncle at all.
func (r *Registry) ValidUncle(u *types.Block, parent *types.Block) bool {
	window := r.refDepth
	newNumber := parent.Number + 1
	if u.Number >= newNumber || newNumber-u.Number > window {
		return false
	}
	// Walk the ancestor window once, collecting ancestors and used uncles.
	cur := parent
	for depth := uint64(0); depth <= window; depth++ {
		if cur.Hash == u.Hash {
			return false // u is an ancestor, not an uncle
		}
		for _, used := range cur.Uncles {
			if used == u.Hash {
				return false // already rewarded
			}
		}
		if cur.Hash == u.ParentHash {
			return true // parent of u found among ancestors
		}
		if cur.ParentHash.IsZero() {
			return false
		}
		next, ok := r.blocks[cur.ParentHash]
		if !ok {
			return false
		}
		cur = next
	}
	return false
}
