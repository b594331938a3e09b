package chain

import (
	"slices"
	"sort"

	"ethmeasure/internal/consensus"
	"ethmeasure/internal/hashset"
	"ethmeasure/internal/types"
)

// View is one node's live view of the blockchain: which blocks it has
// imported, its current head under the protocol's fork-choice rule,
// and the side-chain blocks it could reference as uncles when mining.
//
// Views hold per-node state only; block bodies live once in the shared
// Registry. Old entries are pruned beyond a height window to keep
// memory proportional to network size rather than chain length.
//
// A view holds no maps: the imported hashes are a window bitmap over
// the sequential block ids (hashset.U64), and the height index is one
// slice ordered by height, of which a prune drops a prefix. NewView
// allocates nothing but the View: the index starts in a one-entry
// array inside the View holding genesis, and moves to the heap at the
// first import.
type View struct {
	reg      *Registry
	proto    consensus.Protocol // copied from reg: Import is the hot path
	refDepth uint64             // cached proto.MaxReferenceDepth()
	genesis  [1]tracked         // genesis; tracked's array until the first import
	known    hashset.U64        // imported hashes but genesis
	tracked  []tracked          // blocks at heights ≥ minKept, by height, then import order
	head     *types.Block
	minKept  uint64 // lowest height still tracked in tracked/known

	// pruneWindow controls how far behind the head block metadata is
	// retained. It must exceed the protocol's reference window and the
	// longest plausible reorg; gossip only concerns recent blocks.
	pruneWindow uint64
}

// tracked is one entry of a view's height index.
type tracked struct {
	num  uint64
	hash types.Hash
}

// NewView creates a view anchored at the registry's genesis, applying
// the registry's consensus protocol.
func NewView(reg *Registry) *View {
	g := reg.Genesis()
	refDepth := reg.Protocol().MaxReferenceDepth()
	// The retention window must exceed the protocol's reference window,
	// or deep uncle candidates would be pruned before they could ever
	// be referenced (silently shrinking a ghost-inclusive depth=200 run
	// to the prune horizon). Double the reference depth keeps headroom
	// for reorgs on top of the deepest possible reference.
	pruneWindow := uint64(128)
	if refDepth*2 > pruneWindow {
		pruneWindow = refDepth * 2
	}
	v := &View{
		reg:         reg,
		proto:       reg.Protocol(),
		refDepth:    refDepth,
		genesis:     [1]tracked{{num: g.Number, hash: g.Hash}},
		head:        g,
		minKept:     g.Number,
		pruneWindow: pruneWindow,
	}
	v.tracked = v.genesis[:]
	return v
}

// Head returns the node's current head block.
func (v *View) Head() *types.Block { return v.head }

// Knows reports whether the node has imported (or pruned, for very old
// heights where knowledge is assumed) the given block.
func (v *View) Knows(h types.Hash) bool {
	if h == v.genesis[0].hash || v.known.Has(uint64(h)) {
		return true
	}
	// Blocks below the prune horizon were either imported and forgotten
	// or are ancient; either way the node treats them as known so that
	// gossip logic never re-requests history.
	if b, ok := v.reg.Get(h); ok && b.Number < v.minKept {
		return true
	}
	return false
}

// Import adds a block to the view and applies the protocol's
// fork-choice rule: the head moves when the protocol prefers the new
// block; on a tie the incumbent wins (first-seen rule, as in Geth). It
// reports whether the head changed. Genesis is known from the start,
// and no block is preferred to it over a head, so importing it does
// nothing.
func (v *View) Import(b *types.Block) bool {
	if b.Hash == v.genesis[0].hash || !v.known.Add(uint64(b.Hash)) {
		return false
	}
	if b.Number >= v.minKept {
		v.track(b.Number, b.Hash)
	}
	reorg := v.proto.Prefer(b, v.head)
	if reorg {
		v.head = b
		v.prune()
	}
	return reorg
}

// track inserts a block at a height at or above minKept after every
// tracked block at its height or below. Blocks arrive in height order
// nearly always, so this is an append. The index grows by appending
// until it holds the heights up to the head between prunes
// (2·pruneWindow+1, plus forks), and prunes then keep it in place.
func (v *View) track(num uint64, h types.Hash) {
	i := len(v.tracked)
	if i > 0 && v.tracked[i-1].num > num {
		i = sort.Search(i, func(j int) bool { return v.tracked[j].num > num })
	}
	v.tracked = slices.Insert(v.tracked, i, tracked{num: num, hash: h})
}

func (v *View) prune() {
	if v.head.Number < v.minKept+v.pruneWindow*2 {
		return
	}
	keepFrom := v.head.Number - v.pruneWindow
	n := v.from(keepFrom)
	for _, t := range v.tracked[:n] {
		v.known.Remove(uint64(t.hash))
	}
	v.tracked = slices.Delete(v.tracked, 0, n)
	v.minKept = keepFrom
}

// from returns the index of the first tracked block at height num or
// above.
func (v *View) from(num uint64) int {
	return sort.Search(len(v.tracked), func(j int) bool { return v.tracked[j].num >= num })
}

// UncleCandidates returns up to max side-chain blocks that would be
// valid uncles for a block extending the current head, preferring
// older candidates first (they expire soonest). This mirrors the
// behaviour of Geth's miner, which sweeps its "possible uncles" set.
func (v *View) UncleCandidates(max int) []types.Hash {
	return v.UncleCandidatesFor(v.head, max)
}

// UncleCandidatesFor is UncleCandidates for a block extending an
// arbitrary parent — mining pools use it because their mining job may
// briefly lag the gateway's imported head.
func (v *View) UncleCandidatesFor(parent *types.Block, max int) []types.Hash {
	if max <= 0 {
		return nil
	}
	window := v.refDepth
	newNumber := parent.Number + 1
	var lo uint64
	if newNumber > window {
		lo = newNumber - window
	}
	var out []types.Hash
	for _, t := range v.tracked[v.from(lo):] {
		if t.num >= newNumber || len(out) >= max {
			break
		}
		b, ok := v.reg.Get(t.hash)
		if !ok {
			continue
		}
		if v.reg.ValidUncle(b, parent) {
			out = append(out, t.hash)
		}
	}
	return out
}
