package p2p

import (
	"ethmeasure/internal/sim"
	"ethmeasure/internal/types"
)

// txFlood is one transaction spreading from its origin across the
// network. It keeps every relayed message that can still be a first
// sighting as a pending arrival (time, seq, edge) and owns exactly one
// engine event, at its earliest pending arrival: the event settles that
// arrival's node, relays from it, and re-arms at the new earliest. A
// message to a node that is already settled in the flood, or that
// already has an earlier-or-equal arrival pending, is transmitted (its
// delay drawn and the message counted) but never becomes an arrival,
// and an arrival superseded by an earlier one is replaced in place, so
// no dead delivery ever becomes an event.
//
// Each pending arrival carries the seq its delivery event would have
// had (reserved from the engine at relay time, where the event would
// have been scheduled), and the flood's event is scheduled at exactly
// that (time, seq). Every first sighting therefore runs at the same
// point of the engine's total order as a per-message delivery would
// have, and runs are bit-identical to scheduling every live delivery
// as its own event.
//
// A transaction floods once (SubmitTx ignores a repeated submission),
// so a node holds the transaction exactly when it is settled in the
// transaction's flood: the flood is the only record of who has sighted
// what, and nodes keep no per-transaction state.
type txFlood struct {
	tx    *types.Transaction
	sched *sim.Engine
	pool  *floodPool
	// pos and peers are indexed by node ID and sized to the network
	// when the flood opens. pos[id] is unreached, settled, or the index
	// of the node's pending arrival in heap.
	pos   []int32
	peers []floodPeer
	// heap is a binary min-heap of the pending arrivals by (at, seq),
	// rooted at index 1; heap[0] is unused.
	heap []floodArrival
}

// Node states in txFlood.pos besides a heap index.
const (
	unreached = 0
	settled   = -1
)

// floodPeer is a reached node and the link of its pending arrival.
type floodPeer struct {
	node *Node
	from *Edge
}

// floodArrival is one pending arrival: the delivery time and seq of
// the message, and the ID of its receiver.
type floodArrival struct {
	at  sim.Time
	seq uint64
	id  int32
}

// floodPool is a network's free list of released floods, whose arrays
// keep their capacity. It lives in the network's protocol-layer slot
// (simnet.Network.Local), so the run's floods share it.
type floodPool struct {
	free []*txFlood
}

// flood opens a flood of tx at its origin n, relays from n and arms
// the flood's event.
func (n *Node) flood(tx *types.Transaction) {
	slot := n.net.Local()
	pool, _ := (*slot).(*floodPool)
	if pool == nil {
		pool = &floodPool{}
		*slot = pool
	}
	var f *txFlood
	if k := len(pool.free); k > 0 {
		f = pool.free[k-1]
		pool.free = pool.free[:k-1]
	} else {
		f = &txFlood{pool: pool, heap: make([]floodArrival, 1)}
	}
	if nodes := n.net.NumNodes(); len(f.pos) < nodes {
		f.pos = make([]int32, nodes)
		f.peers = make([]floodPeer, nodes)
	}
	f.tx, f.sched = tx, n.sched
	f.pos[n.netNode.ID] = settled
	f.relay(n, nil)
	f.arm()
}

// HandleSimEvent settles the earliest pending arrival (sim.Handler):
// the node sights the transaction for the first time and relays it.
func (f *txFlood) HandleSimEvent(sim.Arg) {
	id := f.popMin()
	f.pos[id] = settled
	n, from := f.peers[id].node, f.peers[id].from
	if n.Observer != nil {
		n.Observer.ObserveTx(f.sched.Now(), f.tx, from.Other(n).ID())
	}
	if n.TxSink != nil {
		n.TxSink(f.tx)
	}
	f.relay(n, from)
	f.arm()
}

// relay sends the transaction from n to every peer but the one it came
// from (Geth 1.8 broadcasts transactions to every peer not known to
// have them, and at a node's first sighting that is everyone but the
// sender). Every message is transmitted — its delay drawn from the
// sender's stream in edge order — and offered to the flood as an
// arrival.
func (f *txFlood) relay(n *Node, from *Edge) {
	now := f.sched.Now()
	b := n.net.Burst(n.netNode, f.tx.Size)
	for _, e := range n.edges {
		if e == from {
			continue
		}
		peer := e.Other(n)
		f.offer(peer, e, now+b.Transmit(peer.netNode))
	}
	b.Done()
}

// offer records a message reaching peer over e at `at`, unless peer is
// settled in this flood or already has an arrival at or before `at`
// pending: on a tie the pending one has the lower seq and runs first.
// A live message reserves its seq now, where its delivery event would
// have been scheduled.
func (f *txFlood) offer(peer *Node, e *Edge, at sim.Time) {
	id := peer.netNode.ID
	switch p := f.pos[id]; {
	case p == unreached:
		f.peers[id] = floodPeer{node: peer, from: e}
		f.heap = append(f.heap, floodArrival{at: at, seq: f.sched.ReserveSeq(), id: int32(id)})
		f.up(len(f.heap) - 1)
	case p == settled || f.heap[p].at <= at:
	default:
		f.peers[id].from = e
		f.heap[p] = floodArrival{at: at, seq: f.sched.ReserveSeq(), id: int32(id)}
		f.up(int(p))
	}
}

// arm schedules the flood's event at its earliest pending arrival, or
// releases the flood when nothing is pending.
func (f *txFlood) arm() {
	if len(f.heap) > 1 {
		f.sched.ScheduleReserved(f.heap[1].at, f.heap[1].seq, f, sim.Arg{})
		return
	}
	clear(f.pos)
	clear(f.peers)
	f.tx, f.sched = nil, nil
	f.pool.free = append(f.pool.free, f)
}

func arrivalLess(a, b floodArrival) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// popMin removes the earliest pending arrival and returns its node ID.
// The root's hole sinks along the smaller children to a leaf, and the
// last arrival fills it from there: one compare per level instead of
// two, since the last arrival nearly always belongs near the bottom.
func (f *txFlood) popMin() int32 {
	h := f.heap
	top := h[1].id
	last := len(h) - 1
	i := 1
	for {
		c := 2 * i
		if c >= last {
			break
		}
		if c+1 < last && arrivalLess(h[c+1], h[c]) {
			c++
		}
		h[i] = h[c]
		f.pos[h[i].id] = int32(i)
		i = c
	}
	h[i] = h[last]
	f.heap = h[:last]
	if i < last {
		f.up(i)
	}
	return top
}

// up restores heap order above index i.
func (f *txFlood) up(i int) {
	h := f.heap
	a := h[i]
	for i > 1 {
		p := i / 2
		if !arrivalLess(a, h[p]) {
			break
		}
		h[i] = h[p]
		f.pos[h[i].id] = int32(i)
		i = p
	}
	h[i] = a
	f.pos[a.id] = int32(i)
}
