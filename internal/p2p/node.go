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
// A node holds its peers by node ID (see link), and the network's table
// maps IDs to nodes. A message still in flight on a link torn down is
// delivered and observed but marks nothing (see knownBlocks.handle).
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
	"slices"
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
// multi-thousand-node campaigns off the garbage collector. A wire
// delivery carries its sender (*Node) in B and its receiver's handle
// for the link in U.
const (
	evBlockPush    int32 = iota + 1 // A=*types.Block
	evBlockFetched                  // A=*types.Block
	evAnnounce                      // A=*types.Block
	evGetBlock                      // A=*types.Block (request)

	tmPushBlock    // A=*types.Block: post-header-check relay
	tmFinishImport // A=*types.Block: post-import announce
	tmFetch        // as evAnnounce: fetcher arrive-timeout
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

// link is a node's end of a peer link: the peer's ID and the link's
// slot in each end's known-block table. Geth marks a hash as known by a
// peer both when sending it to and when receiving it from that peer,
// and each endpoint keeps its own view of that knowledge. While a
// block is in flight the sender has marked it, and the receiver has
// not, unless the delivery was settled at send time (see
// knownBlocks.settle). Transactions need no per-peer knowledge: a node
// relays a transaction once, at its first sighting, and then the only
// peer known to hold it is the one it arrived from.
type link struct {
	peer           types.NodeID
	slot, peerSlot int32
}

// table is a network's protocol-layer state (simnet.Network.Local):
// its nodes by ID, and the scratch they share: released floods, whose
// arrays keep their capacity, pushBlock's targets and ConnectToRandom's
// permutation.
type table struct {
	nodes   []*Node
	free    []*txFlood
	pushTmp []link
	perm    []int
	delays  uint64 // relayed messages whose delay was computed
}

// Node is one protocol participant.
type Node struct {
	cfg     *Config
	net     *simnet.Network
	netNode *simnet.Node
	id      types.NodeID // netNode.ID, beside netNode: link scans compare it
	sched   *sim.Engine
	rng     *rand.Rand
	view    *chain.View
	tab     *table

	links      []link
	known      knownBlocks // which peers are known to have which blocks
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

// NewNode creates a protocol node bound to a network endpoint and
// registers it in the network's table under the endpoint's ID. Each
// node gets its own chain view over the shared registry, schedules its
// timers on the network's engine, and draws jitter from a per-node RNG
// stream so its randomness is independent of event interleaving.
func NewNode(cfg *Config, net *simnet.Network, endpoint *simnet.Node, reg *chain.Registry) *Node {
	local := net.Local()
	tab, _ := (*local).(*table)
	if tab == nil {
		tab = &table{}
		*local = tab
	}
	n := &Node{
		cfg:       cfg,
		net:       net,
		netNode:   endpoint,
		id:        endpoint.ID,
		sched:     net.Engine(),
		rng:       sim.NewStream(net.Engine().Seed(), "p2p", uint64(endpoint.ID)),
		view:      chain.NewView(reg),
		tab:       tab,
		known:     knownBlocks{capacity: int32(min(max(cfg.KnownBlocksPerPeer, 1), math.MaxInt32))},
		procSpeed: 1,
	}
	for len(tab.nodes) <= int(n.id) {
		tab.nodes = append(tab.nodes, nil)
	}
	tab.nodes[n.id] = n
	return n
}

// SetProcSpeed scales the node's processing delays (1.0 = baseline,
// 0.5 = twice as fast). Values ≤ 0 are ignored.
func (n *Node) SetProcSpeed(speed float64) {
	if speed > 0 {
		n.procSpeed = speed
	}
}

func (n *Node) scale(d time.Duration) time.Duration {
	return time.Duration(float64(d) * n.procSpeed)
}

// ID returns the node's network ID.
func (n *Node) ID() types.NodeID { return n.id }

// Endpoint returns the underlying network endpoint.
func (n *Node) Endpoint() *simnet.Node { return n.netNode }

// View returns the node's chain view.
func (n *Node) View() *chain.View { return n.view }

// Peers returns the connected peer nodes in connection order.
func (n *Node) Peers() []*Node {
	out := make([]*Node, len(n.links))
	for i, l := range n.links {
		out[i] = n.tab.nodes[l.peer]
	}
	return out
}

// Connect links two nodes. Connecting a node to itself or re-connecting
// an existing pair does nothing.
func Connect(a, b *Node) {
	if _, ok := a.linkTo(b); ok || a == b {
		return
	}
	as, bs := a.known.acquire(), b.known.acquire()
	a.links = append(a.links, link{peer: b.id, slot: as, peerSlot: bs})
	b.links = append(b.links, link{peer: a.id, slot: bs, peerSlot: as})
}

// linkTo returns n's link to p, if they are peers. It scans the
// shorter of the two link lists, so a dial check costs O(min degree)
// and a node keeps no per-peer index.
func (n *Node) linkTo(p *Node) (link, bool) {
	if len(p.links) < len(n.links) {
		l, ok := p.linkTo(n)
		return link{peer: p.id, slot: l.peerSlot, peerSlot: l.slot}, ok
	}
	for _, l := range n.links {
		if l.peer == p.id {
			return l, true
		}
	}
	return link{}, false
}

// linkOver returns the link to p that n's handle via names, or, once
// that link is torn down, a link to p whose slots are -1, so a message
// over it marks nothing on either side.
func (n *Node) linkOver(p *Node, via uint64) link {
	if l, ok := n.linkTo(p); ok && n.known.resolve(via) >= 0 {
		return l
	}
	return link{peer: p.id, slot: -1, peerSlot: -1}
}

// Disconnect tears down the link between two nodes (peer drop). It is
// a no-op if they are not connected.
func Disconnect(a, b *Node) {
	if l, ok := a.linkTo(b); ok {
		a.removeLink(l.slot)
		b.removeLink(l.peerSlot)
	}
}

// DisconnectAll drops every peer connection (node restart / departure,
// the churn real deployments see constantly).
func (n *Node) DisconnectAll() {
	for _, l := range n.links {
		n.tab.nodes[l.peer].removeLink(l.peerSlot)
		n.known.release(l.slot)
	}
	n.links = nil
}

// removeLink drops the link on slot, keeping the others in order, and
// releases the slot.
func (n *Node) removeLink(slot int32) {
	n.links = slices.DeleteFunc(n.links, func(l link) bool { return l.slot == slot })
	n.known.release(slot)
}

// HandleSimEvent dispatches one of the node's own engine events, a
// wire delivery or a local timer (sim.Handler).
func (n *Node) HandleSimEvent(arg sim.Arg) {
	switch arg.K {
	case evBlockPush:
		n.handleBlock(arg.A.(*types.Block), arg.B.(*Node), arg.U, MsgFullBlock)
	case evBlockFetched:
		n.handleBlock(arg.A.(*types.Block), arg.B.(*Node), arg.U, MsgFetchedBlock)
	case evAnnounce:
		n.handleAnnounce(arg.A.(*types.Block), arg.B.(*Node), arg.U)
	case evGetBlock:
		n.handleGetBlock(arg.A.(*types.Block), arg.B.(*Node), arg.U)
	case tmPushBlock:
		n.pushBlock(arg.A.(*types.Block))
	case tmFinishImport:
		n.finishImport(arg.A.(*types.Block))
	case tmFetch:
		n.fetchTimeout(arg.A.(*types.Block), arg.B.(*Node), arg.U)
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
func (n *Node) handleBlock(b *types.Block, from *Node, via uint64, kind MsgKind) {
	n.known.mark(b.Hash, n.known.resolve(via))
	if n.Observer != nil {
		n.Observer.ObserveBlock(n.sched.Now(), b, from.id, kind)
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
	targets := n.tab.pushTmp[:0]
	r := n.known.find(b.Hash)
	for _, l := range n.links {
		if !n.known.has(r, l.slot) {
			targets = append(targets, l)
		}
	}
	n.tab.pushTmp = targets[:0]
	if len(targets) == 0 {
		return
	}
	k := int(math.Ceil(math.Sqrt(float64(len(n.links)))))
	if k > len(targets) {
		k = len(targets)
	}
	n.rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	for _, l := range targets[:k] {
		n.sendBlock(b, l, MsgFullBlock)
	}
}

func (n *Node) sendBlock(b *types.Block, l link, kind MsgKind) {
	n.known.mark(b.Hash, l.slot)
	ev := evBlockPush
	if kind == MsgFetchedBlock {
		ev = evBlockFetched
	}
	n.send(l, b.Size, ev, b)
}

// send transmits a block message (a push, fetched block, announcement
// or request of b) over l and schedules its delivery as an event on
// the peer, unless the receiver settles it at send time (see
// knownBlocks.settle): then nothing is scheduled. A request is never
// settled.
func (n *Node) send(l link, size int, ev int32, b *types.Block) {
	peer := n.tab.nodes[l.peer]
	d := n.net.Transmit(n.netNode, peer.netNode, size, uint64(ev), uint64(b.Hash))
	if now := n.sched.Now(); ev != evGetBlock && peer.Observer == nil && peer.known.settle(b.Hash, l.peerSlot, now, now+d) {
		return
	}
	n.sched.AfterArg(d, peer, sim.Arg{A: b, B: n, U: peer.known.handle(l.peerSlot), K: ev})
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
	for _, l := range n.links {
		if n.known.has(r, l.slot) {
			continue
		}
		n.known.set(r, l.slot)
		n.send(l, size, evAnnounce, b)
	}
}

// handleAnnounce processes an inbound block-hash announcement (the
// wire carries hash+number; the block pointer is simulator-internal
// plumbing). Unknown hashes arm the fetcher: wait for the direct push,
// then request the block from the announcing peer if it never arrives.
func (n *Node) handleAnnounce(b *types.Block, from *Node, via uint64) {
	h := b.Hash
	n.known.mark(h, n.known.resolve(via))
	if n.Observer != nil {
		n.Observer.ObserveAnnounce(n.sched.Now(), h, b.Number, from.id)
	}
	if n.seenBlocks.Has(uint64(h)) || !n.fetching.Add(uint64(h)) {
		return
	}
	n.sched.AfterArg(n.cfg.fetchDelay(n.rng), n, sim.Arg{A: b, B: from, U: via, K: tmFetch})
}

// fetchTimeout fires when an announced block still has not arrived by
// direct push: request it explicitly from the announcing peer.
func (n *Node) fetchTimeout(b *types.Block, announcer *Node, via uint64) {
	h := b.Hash
	if n.seenBlocks.Has(uint64(h)) || !n.fetching.Remove(uint64(h)) {
		return
	}
	n.send(n.linkOver(announcer, via), 64, evGetBlock, b)
}

// handleGetBlock serves a block body to a peer that requested it after
// an announcement, over the link the request came over.
func (n *Node) handleGetBlock(b *types.Block, from *Node, via uint64) {
	if !n.seenBlocks.Has(uint64(b.Hash)) {
		return // cannot serve what we do not have
	}
	n.sendBlock(b, n.linkOver(from, via), MsgFetchedBlock)
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
