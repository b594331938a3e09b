package p2p

import (
	"ethmeasure/internal/chain"
	"ethmeasure/internal/sim"
	"ethmeasure/internal/simnet"
)

// Recycler pools Node and Edge allocations across sequential runs on
// one worker. The peer graph is the dominant construction cost of a
// campaign — NumNodes×OutDegree edges, each carrying two known-block
// caches — so a warm rebuild that reuses those structs turns topology
// construction from an allocation storm into field reassignment.
//
// The contract is strict bit-identity: every observable field of a
// recycled node or edge is reset to exactly what cold construction
// would produce (RNG streams re-seeded, caches emptied, callbacks
// nil'd). Only capacity is carried over, and capacity is never visible
// to the simulation. A Recycler is single-goroutine, like the campaigns
// it serves; concurrent workers each own their own.
type Recycler struct {
	nodes []*Node
	edges []*Edge

	nodesReused uint64
	edgesReused uint64
}

// RecyclerStats reports reuse counters (tests and the ethbench reuse
// profile read these to prove pooling actually engaged).
type RecyclerStats struct {
	NodesReused uint64 // nodes handed out from the freelist
	EdgesReused uint64 // edges handed out from the freelist
	NodesFree   int    // nodes currently pooled
	EdgesFree   int    // edges currently pooled
}

// NewRecycler returns an empty recycler.
func NewRecycler() *Recycler { return &Recycler{} }

// Stats returns the current reuse counters.
func (r *Recycler) Stats() RecyclerStats {
	return RecyclerStats{
		NodesReused: r.nodesReused,
		EdgesReused: r.edgesReused,
		NodesFree:   len(r.nodes),
		EdgesFree:   len(r.edges),
	}
}

// NewNode is NewNode drawing on the freelist: a pooled node is reset
// field by field to the state a cold construction would produce, and
// its edges (via Connect) will draw on the recycler's edge freelist.
func (r *Recycler) NewNode(cfg *Config, net *simnet.Network, endpoint *simnet.Node, reg *chain.Registry) *Node {
	k := len(r.nodes)
	if k == 0 {
		n := NewNode(cfg, net, endpoint, reg)
		n.rec = r
		return n
	}
	n := r.nodes[k-1]
	r.nodes = r.nodes[:k-1]
	r.nodesReused++
	n.cfg = cfg
	n.net = net
	n.netNode = endpoint
	n.sched = net.Engine()
	sim.ReseedStream(n.rng, net.Engine().Seed(), "p2p", uint64(endpoint.ID))
	n.reg = reg
	n.view = chain.NewView(reg)
	n.edges = n.edges[:0]
	// peerBits, seenBlocks and fetching were swept by Reclaim.
	n.procSpeed = 1
	n.Observer = nil
	n.OnNewHead = nil
	n.TxSink = nil
	return n
}

// Reclaim harvests the nodes of a finished run (and every edge still
// attached to them) back into the freelists. Each edge is collected
// once, from its a-endpoint, which is correct because Reclaim is always
// handed every node of the campaign. References into the finished run
// (registry, views, callbacks, scratch) are dropped immediately so the
// pool does not pin the previous run's object graph while idle, and
// the known-hash caches, seen-sets and peer bitsets are swept here —
// at reclaim time — so the next run's build is pure reassignment. The
// caller must not touch the reclaimed nodes afterwards.
func (r *Recycler) Reclaim(lists ...[]*Node) {
	for _, nodes := range lists {
		for _, n := range nodes {
			if n == nil || n.rec != r {
				continue
			}
			for _, e := range n.edges {
				if e.a == n {
					e.aKnownBlocks.scrub()
					e.bKnownBlocks.scrub()
					r.edges = append(r.edges, e)
				}
			}
			n.edges = n.edges[:0]
			n.peerBits.reset()
			n.seenBlocks.Clear()
			n.fetching.Clear()
			pt := n.pushTmp[:cap(n.pushTmp)]
			clear(pt)
			n.pushTmp = pt[:0]
			n.cfg, n.net, n.netNode, n.sched = nil, nil, nil, nil
			n.reg, n.view = nil, nil
			n.Observer, n.OnNewHead, n.TxSink = nil, nil, nil
			r.nodes = append(r.nodes, n)
		}
	}
}

// newEdge builds the edge for Connect, drawing on a's recycler when the
// node is pooled. Its two known-block caches are reset to the endpoint
// configs' capacities, so a recycled edge matches a cold one exactly; a
// cold edge is a single allocation, its caches holding no storage until
// the first hash crosses the link.
func newEdge(a, b *Node) *Edge {
	var e *Edge
	if r := a.rec; r != nil && len(r.edges) > 0 {
		k := len(r.edges)
		e = r.edges[k-1]
		r.edges = r.edges[:k-1]
		r.edgesReused++
	} else {
		e = &Edge{}
	}
	e.a, e.b = a, b
	e.aKnownBlocks.reset(a.cfg.KnownBlocksPerPeer)
	e.bKnownBlocks.reset(b.cfg.KnownBlocksPerPeer)
	return e
}
