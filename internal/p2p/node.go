// Package p2p models the Ethereum wire protocol (eth/63) as spoken by
// Geth 1.8.x, the client the paper instrumented:
//
//   - a freshly received block is pushed in full to ceil(sqrt(peers))
//     peers after only a header check (direct propagation);
//   - after full import, its hash is announced to every remaining peer
//     that is not known to have it;
//   - a node that only heard an announcement waits ~arriveTimeout for
//     the direct push to arrive before fetching the block explicitly;
//   - each node keeps one known-block table, a bitmask over its peers
//     for each recent block, so nothing is re-sent to a peer known to
//     have it (the source of the bounded redundancy in Table II);
//   - a first-seen transaction is relayed to every peer but the one it
//     came from.
//
// A node receives each block about nine times, and only the first
// reception starts its relay: a later one, at a node with no Observer,
// only marks the sending peer in the node's known-block table for the
// node's own push and announce of the block to read. Such a delivery
// is settled when it is sent (see knownBlocks.settle). It is still
// transmitted, its delay computed and the message counted, but it
// schedules no event. A delivery that lands after the receiver's
// announce is dead and is dropped. One that lands before the receiver's
// next read has its mark set at once. Only a delivery that lands
// between the receiver's push and announce, or reaches an observed node
// or one still without the block, becomes an event. Block requests are
// never settled early.
//
// Transaction relay carries nearly all of a campaign's messages, and
// most of them reach a peer that already has the transaction or will
// get it sooner through another link. Each transaction therefore runs
// as one flood (see txFlood): every relayed message is counted, but
// only a message that can still be its receiver's first arrival has
// its delay computed, and only a node's first arrival becomes an
// engine event, so duplicates never become events or reach an
// observer, and the flood alone records which nodes hold the
// transaction.
package p2p

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ethmeasure/internal/chain"
	"ethmeasure/internal/hashset"
	"ethmeasure/internal/rlp"
	"ethmeasure/internal/sim"
	"ethmeasure/internal/simnet"
	"ethmeasure/internal/types"
)

// MsgKind classifies an observed inbound message.
type MsgKind int

// Message kinds.
const (
	MsgFullBlock    MsgKind = iota + 1 // direct NewBlock push (header+body)
	MsgAnnounce                        // NewBlockHashes announcement
	MsgFetchedBlock                    // block body fetched after an announcement
	MsgTx                              // transaction
)

// String names the message kind.
func (k MsgKind) String() string {
	switch k {
	case MsgFullBlock:
		return "block"
	case MsgAnnounce:
		return "announce"
	case MsgFetchedBlock:
		return "fetched"
	case MsgTx:
		return "tx"
	default:
		return "unknown"
	}
}

// Event kinds (sim.Arg.K) of a node's own engine events: wire
// deliveries to the node and its local timers. Both arrive through
// HandleSimEvent and are allocation-free, which is what keeps
// multi-thousand-node campaigns off the garbage collector.
const (
	evBlockPush    int32 = iota + 1 // A=*types.Block, B=*Edge
	evBlockFetched                  // A=*types.Block, B=*Edge
	evAnnounce                      // A=*types.Block, B=*Edge
	evGetBlock                      // U=hash, B=*Edge (request)

	tmPushBlock    // A=*types.Block: post-header-check relay
	tmFinishImport // A=*types.Block: post-import announce
	tmFetch        // A=*types.Block, B=*Edge: fetcher arrive-timeout
)

// Observer receives every inbound protocol message at a node. The
// measurement infrastructure implements it; regular nodes leave it nil.
type Observer interface {
	// ObserveBlock fires for every full-block or fetched-block delivery.
	ObserveBlock(at sim.Time, b *types.Block, from types.NodeID, kind MsgKind)
	// ObserveAnnounce fires for every block-hash announcement entry.
	ObserveAnnounce(at sim.Time, h types.Hash, number uint64, from types.NodeID)
	// ObserveTx fires for the delivery that first brings a
	// transaction to the node. Duplicates are never delivered, so an
	// observer sees each transaction once.
	ObserveTx(at sim.Time, tx *types.Transaction, from types.NodeID)
}

// Edge is a bidirectional peer link. Each endpoint holds a slot in its
// own node's known-block table (see knownBlocks): Geth marks a hash as
// known by a peer both when sending it to and when receiving it from
// that peer, and each endpoint keeps its own view of that knowledge, as
// each Geth node keeps its own peer set. While a block is in flight the
// sender has marked it in its table, and the receiver has not, unless
// the delivery was settled at send time (see knownBlocks.settle). A
// torn-down link's slots are -1, so a message still in flight on it
// marks nothing; releasing a slot clears a mark set early the same way.
//
// Transactions need no per-peer knowledge: a node relays a transaction
// once, at its first sighting, and at that moment the only peer known
// to hold it is the one it arrived from.
type Edge struct {
	a, b         *Node
	aSlot, bSlot int32
}

// Other returns the endpoint of the edge that is not n.
func (e *Edge) Other(n *Node) *Node {
	if e.a == n {
		return e.b
	}
	return e.a
}

// slot returns n's endpoint slot: the edge's slot in n's known-block
// table.
func (e *Edge) slot(n *Node) *int32 {
	if e.a == n {
		return &e.aSlot
	}
	return &e.bSlot
}

// Node is one protocol participant.
type Node struct {
	cfg     *Config
	net     *simnet.Network
	netNode *simnet.Node
	id      types.NodeID // netNode.ID, beside netNode: a relay reads it for every message
	sched   *sim.Engine
	rng     *rand.Rand
	reg     *chain.Registry
	view    *chain.View

	edges      []*Edge
	known      knownBlocks // which peers are known to have which blocks
	pushTmp    []*Edge     // reusable scratch for pushBlock targets
	seenBlocks hashset.U64 // received at least once (pre-import)
	fetching   hashset.U64 // announced, awaiting push or fetch

	// procSpeed scales this node's processing delays: 1.0 = baseline
	// hardware, <1 = faster. The paper's measurement machines are well
	// above minimum spec (Table I), while the public network mixes
	// hardware classes; this asymmetry shapes who announces first and
	// therefore the redundancy split of Table II.
	procSpeed float64

	// Observer, when non-nil, sees every inbound message (measurement).
	Observer Observer
	// OnNewHead, when non-nil, fires after an import changes the head
	// (mining-pool gateways hook this to switch mining jobs).
	OnNewHead func(b *types.Block)
	// TxSink, when non-nil, receives every first-seen transaction
	// (mining-pool gateways feed their txpool from it).
	TxSink func(tx *types.Transaction)
}

// NewNode creates a protocol node bound to a network endpoint. Each
// node gets its own chain view over the shared registry, schedules its
// timers on the network's engine, and draws jitter from a per-node RNG
// stream so its randomness is independent of event interleaving.
func NewNode(cfg *Config, net *simnet.Network, endpoint *simnet.Node, reg *chain.Registry) *Node {
	return &Node{
		cfg:       cfg,
		net:       net,
		netNode:   endpoint,
		id:        endpoint.ID,
		sched:     net.Engine(),
		rng:       sim.NewStream(net.Engine().Seed(), "p2p", uint64(endpoint.ID)),
		reg:       reg,
		view:      chain.NewView(reg),
		known:     knownBlocks{capacity: max(cfg.KnownBlocksPerPeer, 1)},
		procSpeed: 1,
	}
}

// SetProcSpeed scales the node's processing delays (1.0 = baseline,
// 0.5 = twice as fast). Values ≤ 0 are ignored.
func (n *Node) SetProcSpeed(speed float64) {
	if speed > 0 {
		n.procSpeed = speed
	}
}

// ProcSpeed returns the node's processing-speed scale.
func (n *Node) ProcSpeed() float64 { return n.procSpeed }

func (n *Node) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * n.procSpeed)
}

// ID returns the node's network ID.
func (n *Node) ID() types.NodeID { return n.id }

// Endpoint returns the underlying network endpoint.
func (n *Node) Endpoint() *simnet.Node { return n.netNode }

// View returns the node's chain view.
func (n *Node) View() *chain.View { return n.view }

// NumPeers returns the number of connected peers.
func (n *Node) NumPeers() int { return len(n.edges) }

// Peers returns the connected peer nodes in connection order.
func (n *Node) Peers() []*Node {
	out := make([]*Node, len(n.edges))
	for i, e := range n.edges {
		out[i] = e.Other(n)
	}
	return out
}

// Connect links two nodes. Connecting a node to itself or re-connecting
// an existing pair is a no-op returning the existing (or nil) edge.
func Connect(a, b *Node) *Edge {
	if a == b {
		return nil
	}
	if e := a.edgeTo(b); e != nil {
		return e
	}
	e := newEdge(a, b)
	a.edges = append(a.edges, e)
	b.edges = append(b.edges, e)
	return e
}

// edgeTo returns the edge between n and b, or nil if they are not
// peers. It scans the shorter of the two edge lists, so a dial check
// costs O(min degree) and a node keeps no per-peer index.
func (n *Node) edgeTo(b *Node) *Edge {
	from, to := n, b
	if len(b.edges) < len(n.edges) {
		from, to = b, n
	}
	for _, e := range from.edges {
		if e.Other(from) == to {
			return e
		}
	}
	return nil
}

// newEdge builds the edge for Connect, taking a slot in each
// endpoint's known-block table. An edge is a single allocation.
func newEdge(a, b *Node) *Edge {
	return &Edge{a: a, b: b, aSlot: a.known.acquire(), bSlot: b.known.acquire()}
}

// Disconnect tears down the link between two nodes (peer drop). It is
// a no-op if they are not connected.
func Disconnect(a, b *Node) {
	if e := a.edgeTo(b); e != nil {
		a.removeEdge(e)
		b.removeEdge(e)
	}
}

// DisconnectAll drops every peer connection (node restart / departure,
// the churn real deployments see constantly).
func (n *Node) DisconnectAll() {
	edges := n.edges
	n.edges = nil
	for _, e := range edges {
		e.Other(n).removeEdge(e)
		*e.slot(n) = -1
	}
	n.known.releaseAll()
}

func (n *Node) removeEdge(target *Edge) {
	for i, e := range n.edges {
		if e == target {
			n.edges = append(n.edges[:i], n.edges[i+1:]...)
			s := target.slot(n)
			n.known.release(*s)
			*s = -1
			return
		}
	}
}

// HandleSimEvent dispatches one of the node's own engine events, a
// wire delivery or a local timer (sim.Handler).
func (n *Node) HandleSimEvent(arg sim.Arg) {
	switch arg.K {
	case evBlockPush:
		n.handleBlock(arg.A.(*types.Block), arg.B.(*Edge), MsgFullBlock)
	case evBlockFetched:
		n.handleBlock(arg.A.(*types.Block), arg.B.(*Edge), MsgFetchedBlock)
	case evAnnounce:
		n.handleAnnounce(arg.A.(*types.Block), arg.B.(*Edge))
	case evGetBlock:
		n.handleGetBlock(types.Hash(arg.U), arg.B.(*Edge))
	case tmPushBlock:
		n.pushBlock(arg.A.(*types.Block))
	case tmFinishImport:
		n.finishImport(arg.A.(*types.Block))
	case tmFetch:
		n.fetchTimeout(arg.A.(*types.Block), arg.B.(*Edge))
	default:
		// A dropped message would skew propagation metrics silently;
		// fail loudly like the engine does for past-time scheduling.
		panic(fmt.Sprintf("p2p: unknown event kind %d", arg.K))
	}
}

// PublishBlock is called by a miner gateway for a block it just mined:
// the block is imported locally, pushed in full to sqrt(peers) and
// announced to everyone else, exactly as Geth's mined-block broadcast.
func (n *Node) PublishBlock(b *types.Block) {
	if !n.seenBlocks.Add(uint64(b.Hash)) {
		return
	}
	if n.view.Import(b) && n.OnNewHead != nil {
		n.OnNewHead(b)
	}
	n.pushBlock(b)
	n.announceBlock(b)
	now := n.sched.Now()
	n.known.schedule(b.Hash, now, now)
}

// handleBlock processes an inbound full block (pushed or fetched).
func (n *Node) handleBlock(b *types.Block, from *Edge, kind MsgKind) {
	n.known.mark(b.Hash, *from.slot(n))
	if n.Observer != nil {
		n.Observer.ObserveBlock(n.sched.Now(), b, from.Other(n).ID(), kind)
	}
	if !n.seenBlocks.Add(uint64(b.Hash)) {
		return
	}
	n.fetching.Remove(uint64(b.Hash))

	// Direct propagation happens after only a header sanity check;
	// full import (validation + state execution) completes later and
	// triggers the hash announcement.
	headerDelay := n.scale(n.cfg.headerCheckDelay(n.rng))
	importDelay := n.scale(n.cfg.importDelay(n.rng, len(b.TxHashes)))
	n.sched.AfterArg(headerDelay, n, sim.Arg{A: b, K: tmPushBlock})
	n.sched.AfterArg(headerDelay+importDelay, n, sim.Arg{A: b, K: tmFinishImport})
	now := n.sched.Now()
	n.known.schedule(b.Hash, now+headerDelay, now+headerDelay+importDelay)
}

// pushBlock sends the full block to ceil(sqrt(peers)) randomly chosen
// peers that are not known to have it.
func (n *Node) pushBlock(b *types.Block) {
	if !n.cfg.SqrtPush {
		return
	}
	targets := n.pushTmp[:0]
	r := n.known.find(b.Hash)
	for _, e := range n.edges {
		if !n.known.has(r, *e.slot(n)) {
			targets = append(targets, e)
		}
	}
	n.pushTmp = targets[:0]
	if len(targets) == 0 {
		return
	}
	k := int(math.Ceil(math.Sqrt(float64(len(n.edges)))))
	if k > len(targets) {
		k = len(targets)
	}
	n.rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	for _, e := range targets[:k] {
		n.sendBlock(b, e, MsgFullBlock)
	}
}

func (n *Node) sendBlock(b *types.Block, e *Edge, kind MsgKind) {
	n.known.mark(b.Hash, *e.slot(n))
	ev := evBlockPush
	if kind == MsgFetchedBlock {
		ev = evBlockFetched
	}
	n.send(e, b.Size, ev, b)
}

// send transmits a block message (a push, fetched block or
// announcement of b) over e and schedules its delivery as an event on
// the peer, unless the receiver settles it at send time (see
// knownBlocks.settle): then nothing is scheduled.
func (n *Node) send(e *Edge, size int, ev int32, b *types.Block) {
	peer := e.Other(n)
	d := n.net.Transmit(n.netNode, peer.netNode, size, uint64(ev), uint64(b.Hash))
	if now := n.sched.Now(); peer.Observer == nil && peer.known.settle(b.Hash, *e.slot(peer), now, now+d) {
		return
	}
	n.sched.AfterArg(d, peer, sim.Arg{A: b, B: e, K: ev})
}

// finishImport completes validation, applies fork choice and announces
// the block hash to every peer not known to have it.
func (n *Node) finishImport(b *types.Block) {
	if n.view.Import(b) && n.OnNewHead != nil {
		n.OnNewHead(b)
	}
	n.announceBlock(b)
}

func (n *Node) announceBlock(b *types.Block) {
	if !n.cfg.AnnounceAfterImport {
		return
	}
	r := n.known.claim(b.Hash)
	size := rlp.AnnouncementWireSize(b.Number)
	for _, e := range n.edges {
		slot := *e.slot(n)
		if n.known.has(r, slot) {
			continue
		}
		n.known.set(r, slot)
		n.send(e, size, evAnnounce, b)
	}
}

// handleAnnounce processes an inbound block-hash announcement (the
// wire carries hash+number; the block pointer is simulator-internal
// plumbing). Unknown hashes arm the fetcher: wait for the direct push,
// then request the block from the announcing peer if it never arrives.
func (n *Node) handleAnnounce(b *types.Block, from *Edge) {
	h := b.Hash
	n.known.mark(h, *from.slot(n))
	if n.Observer != nil {
		n.Observer.ObserveAnnounce(n.sched.Now(), h, b.Number, from.Other(n).ID())
	}
	if n.seenBlocks.Has(uint64(h)) || !n.fetching.Add(uint64(h)) {
		return
	}
	n.sched.AfterArg(n.cfg.fetchDelay(n.rng), n, sim.Arg{A: b, B: from, K: tmFetch})
}

// fetchTimeout fires when an announced block still has not arrived by
// direct push: request it explicitly from the announcing peer.
func (n *Node) fetchTimeout(b *types.Block, announcer *Edge) {
	h := b.Hash
	if n.seenBlocks.Has(uint64(h)) || !n.fetching.Remove(uint64(h)) {
		return
	}
	peer := announcer.Other(n)
	d := n.net.Transmit(n.netNode, peer.netNode, 64, uint64(evGetBlock), uint64(h))
	n.sched.AfterArg(d, peer, sim.Arg{B: announcer, U: uint64(h), K: evGetBlock})
}

// handleGetBlock serves a block body to a peer that requested it after
// an announcement.
func (n *Node) handleGetBlock(h types.Hash, from *Edge) {
	if !n.seenBlocks.Has(uint64(h)) {
		return // cannot serve what we do not have
	}
	b, ok := n.reg.Get(h)
	if !ok {
		return
	}
	n.sendBlock(b, from, MsgFetchedBlock)
}

// SubmitTx injects a locally created transaction (the node is the
// origin chosen by the workload generator) and floods it. A
// transaction floods once: submitting it again, at this node or any
// other, does nothing.
//
// Observed nodes cannot originate transactions: an observer must first
// sight every transaction through a delivery, because deliveries to a
// node that already holds the transaction are never simulated.
func (n *Node) SubmitTx(tx *types.Transaction) {
	if n.Observer != nil {
		panic("p2p: SubmitTx on an observed node")
	}
	if tx.Submitted {
		return
	}
	tx.Submitted = true
	if n.TxSink != nil {
		n.TxSink(tx)
	}
	n.flood(tx)
}
