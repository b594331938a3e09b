package p2p

import (
	"ethmeasure/internal/sim"
	"ethmeasure/internal/simnet"
	"ethmeasure/internal/types"
)

// txFlood is one transaction spreading from one node across the nodes
// of that node's scheduler. It keeps every relayed message that can
// still be a first sighting as a pending arrival (time, seq, edge) and
// owns exactly one engine event, at its earliest pending arrival: the
// event settles that arrival's node, relays from it, and re-arms at
// the new earliest. A message to a node that is already settled in the
// flood, or that already has an earlier-or-equal arrival pending, is
// transmitted (its delay drawn and the message counted) but never
// becomes an arrival, and an arrival superseded by an earlier one is
// replaced in place, so no dead delivery ever becomes an event.
//
// Each pending arrival carries the seq its delivery event would have
// had (reserved from the scheduler at relay time, where the event
// would have been scheduled), and the flood's event is scheduled at
// exactly that (time, seq). Every first sighting therefore runs at the
// same point of the engine's total order as a per-message delivery
// would have, and runs are bit-identical to scheduling every live
// delivery as its own event.
//
// On the sharded engine a flood touches only nodes on its scheduler's
// shard; messages to other shards stay routed evTx deliveries, and a
// routed delivery that is a first sighting opens a new flood on its
// receiver's shard. Floods of one transaction on one shard may then
// overlap, so the node's own known-tx set, not the flood, decides a
// first sighting: a pop at a node that already holds the transaction
// relays nothing.
type txFlood struct {
	tx    *types.Transaction
	sched sim.Scheduler
	shard int
	pool  *floodPool
	// slots is an open-addressing table (linear probing, power-of-two
	// size, at most half full) of every node the flood has reached,
	// keyed by node ID (Fibonacci hashing: the top bits of ID·φ, shift
	// = 32 − log2 len). It grows with the nodes touched, never with the
	// network.
	slots []floodSlot
	peers []floodPeer // parallel to slots
	shift uint8
	used  int
	// heap is a binary min-heap of the pending arrivals by (at, seq).
	heap []floodArrival
}

// floodSlot is one node's entry in a flood: pending (pos ≥ 0, the
// index of its arrival in the heap) or settled (pos < 0).
type floodSlot struct {
	id  int32 // node ID + 1; 0: empty slot
	pos int32
}

// floodPeer is the node of a slot and the link of its pending arrival
// (nil for the origin).
type floodPeer struct {
	node *Node
	from *Edge
}

// floodArrival is one pending arrival: the delivery time and seq of
// the message, and the slot of its receiver.
type floodArrival struct {
	at   sim.Time
	seq  uint64
	slot int32
}

const settled = -1

// floodPool is one shard's free list of released floods, whose tables
// and heaps keep their capacity. It lives in the network's slot for the
// shard (simnet.Network.ShardLocal), so only that shard's goroutine
// touches it.
type floodPool struct {
	free []*txFlood
}

// flood opens a flood of tx at n, which has just sighted it for the
// first time (from is the link it arrived on, nil for a submission),
// relays from n and arms the flood's event.
func (n *Node) flood(tx *types.Transaction, from *Edge) {
	slot := n.net.ShardLocal(n.netNode)
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
		// A fresh flood's table has 64 slots.
		f = &txFlood{pool: pool, slots: make([]floodSlot, 64), peers: make([]floodPeer, 64), shift: 32 - 6}
	}
	f.tx, f.sched, f.shard = tx, n.sched, n.net.ShardOf(n.netNode)
	i := f.find(n.netNode.ID)
	f.slots[i] = floodSlot{id: int32(n.netNode.ID) + 1, pos: settled}
	f.peers[i].node = n
	f.used = 1
	f.relay(n, from)
	f.arm()
}

// HandleSimEvent settles the earliest pending arrival (sim.Handler).
func (f *txFlood) HandleSimEvent(sim.Arg) {
	i := f.popMin()
	f.slots[i].pos = settled
	n, from := f.peers[i].node, f.peers[i].from
	if n.receiveTx(f.tx, from) {
		f.relay(n, from)
	}
	f.arm()
}

// relay sends the transaction from n to every peer but the one it came
// from (Geth 1.8 broadcasts transactions to every peer not known to
// have them, and at a node's first sighting that is everyone but the
// sender). Every message is transmitted — its delay drawn from the
// sender's stream in edge order — and offered to the flood as an
// arrival; messages to another shard are delivered as evTx instead.
func (f *txFlood) relay(n *Node, from *Edge) {
	now := f.sched.Now()
	b := n.net.Burst(n.netNode, f.tx.Size)
	for _, e := range n.edges {
		if e == from {
			continue
		}
		peer := e.Other(n)
		d := b.Transmit(peer.netNode)
		if n.net.ShardOf(peer.netNode) != f.shard {
			n.net.ScheduleDelivery(n.netNode, peer.netNode, d,
				peer, simnet.Envelope{Kind: evTx, Data: f.tx, Aux: e})
			continue
		}
		f.offer(peer, peer.netNode.ID, e, now+d)
	}
	b.Done()
}

// offer records a message reaching peer over e at `at`, unless peer is
// settled in this flood or already has an arrival at or before `at`
// pending: on a tie the pending one has the lower seq and runs first.
// A live message reserves its seq now, where its delivery event would
// have been scheduled.
func (f *txFlood) offer(peer *Node, id types.NodeID, e *Edge, at sim.Time) {
	i := f.find(id)
	s := &f.slots[i]
	if s.id == 0 {
		if 2*(f.used+1) > len(f.slots) {
			f.grow()
			i = f.find(id)
			s = &f.slots[i]
		}
		f.used++
		*s = floodSlot{id: int32(id) + 1, pos: int32(len(f.heap))}
		f.peers[i] = floodPeer{node: peer, from: e}
		f.heap = append(f.heap, floodArrival{at: at, seq: f.sched.ReserveSeq(), slot: i})
		f.up(int(s.pos))
		return
	}
	if s.pos < 0 || f.heap[s.pos].at <= at {
		return
	}
	f.peers[i].from = e
	f.heap[s.pos] = floodArrival{at: at, seq: f.sched.ReserveSeq(), slot: i}
	f.up(int(s.pos))
}

// arm schedules the flood's event at its earliest pending arrival, or
// releases the flood when nothing is pending.
func (f *txFlood) arm() {
	if len(f.heap) > 0 {
		f.sched.ScheduleReserved(f.heap[0].at, f.heap[0].seq, f, sim.Arg{})
		return
	}
	clear(f.slots)
	clear(f.peers)
	f.used = 0
	f.tx, f.sched = nil, nil
	f.pool.free = append(f.pool.free, f)
}

// find returns the slot of node id: its entry, or the empty slot where
// it belongs.
func (f *txFlood) find(id types.NodeID) int32 {
	key := int32(id) + 1
	mask := uint32(len(f.slots) - 1)
	i := uint32(key) * 0x9E3779B9 >> f.shift
	for {
		if s := f.slots[i].id; s == 0 || s == key {
			return int32(i)
		}
		i = (i + 1) & mask
	}
}

// grow doubles the table, re-inserting every entry and repointing the
// heap at the moved slots.
func (f *txFlood) grow() {
	old, oldPeers := f.slots, f.peers
	f.slots = make([]floodSlot, 2*len(old))
	f.peers = make([]floodPeer, 2*len(old))
	f.shift--
	for j, s := range old {
		if s.id == 0 {
			continue
		}
		i := f.find(types.NodeID(s.id - 1))
		f.slots[i], f.peers[i] = s, oldPeers[j]
		if s.pos >= 0 {
			f.heap[s.pos].slot = i
		}
	}
}

func arrivalLess(a, b floodArrival) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// popMin removes the earliest pending arrival and returns its slot.
// The root's hole sinks along the smaller children to a leaf, and the
// last arrival fills it from there: one compare per level instead of
// two, since the last arrival nearly always belongs near the bottom.
func (f *txFlood) popMin() int32 {
	h := f.heap
	top := h[0].slot
	last := len(h) - 1
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && arrivalLess(h[c+1], h[c]) {
			c++
		}
		h[i] = h[c]
		f.slots[h[i].slot].pos = int32(i)
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
	for i > 0 {
		p := (i - 1) / 2
		if !arrivalLess(a, h[p]) {
			break
		}
		h[i] = h[p]
		f.slots[h[i].slot].pos = int32(i)
		i = p
	}
	h[i] = a
	f.slots[a.slot].pos = int32(i)
}
