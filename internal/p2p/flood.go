package p2p

import (
	"ethmeasure/internal/sim"
	"ethmeasure/internal/types"
)

// txFlood is one transaction spreading from its origin across the
// network. It keeps every relayed message that can still be a first
// sighting as a pending arrival (time, sender, receiver) and owns
// exactly one engine event, at its earliest pending arrival: the event
// settles that arrival's node, relays from it, and re-arms at the new
// earliest. Arrivals at one instant tie-break on the sender's node ID,
// the lower first, so a flood's outcome depends only on the graph, the
// seed and the transaction, not on the order of any events.
//
// Every relayed message is counted, but a message to a node that is
// already settled in the flood, or that has a pending arrival the
// message cannot beat even at the pair's delay floor, is dead whatever
// its delay: its delay is never computed. A live message's delay is
// computed, and the message becomes the receiver's pending arrival if
// it beats the pending one, which it replaces in place. No dead
// delivery ever becomes an event.
//
// A transaction floods once (SubmitTx ignores a repeated submission),
// so a node holds the transaction exactly when it is settled in the
// transaction's flood: the flood is the only record of who has sighted
// what, and nodes keep no per-transaction state.
type txFlood struct {
	tx    *types.Transaction
	sched *sim.Engine
	tab   *table
	// pos and via are indexed by node ID and sized to the network when
	// the flood opens. pos[id] is unreached, settled, or the index of
	// the node's pending arrival in heap; via[id] is the node's handle
	// for the link its pending arrival comes over.
	pos []int32
	via []uint64
	// heap is a binary min-heap of the pending arrivals by (at, from),
	// rooted at index 1; heap[0] is unused.
	heap []floodArrival
}

// Node states in txFlood.pos besides a heap index.
const (
	unreached = 0
	settled   = -1
)

// floodArrival is one pending arrival: the delivery time of the
// message and the IDs of its sender and receiver.
type floodArrival struct {
	at       sim.Time
	from, id int32
}

// txKind is a transaction message's kind in its delay key; block
// messages use their node event kinds, which start at 1.
const txKind = 0

// flood opens a flood of tx at its origin n, relays from n and arms
// the flood's event.
func (n *Node) flood(tx *types.Transaction) {
	tab := n.tab
	var f *txFlood
	if k := len(tab.free); k > 0 {
		f = tab.free[k-1]
		tab.free = tab.free[:k-1]
	} else {
		f = &txFlood{tab: tab, heap: make([]floodArrival, 1)}
	}
	if nodes := n.net.NumNodes(); len(f.pos) < nodes {
		f.pos = make([]int32, nodes)
		f.via = make([]uint64, nodes)
	}
	f.tx, f.sched = tx, n.sched
	f.pos[n.id] = settled
	f.relay(n, -1)
	f.arm()
}

// HandleSimEvent settles the earliest pending arrival (sim.Handler):
// the node sights the transaction for the first time and relays it.
func (f *txFlood) HandleSimEvent(sim.Arg) {
	a := f.popMin()
	f.pos[a.id] = settled
	n := f.tab.nodes[a.id]
	if n.Observer != nil {
		n.Observer.ObserveTx(f.sched.Now(), f.tx, types.NodeID(a.from))
	}
	if n.TxSink != nil {
		n.TxSink(f.tx)
	}
	f.relay(n, n.known.resolve(f.via[a.id]))
	f.arm()
}

// relay sends the transaction from n over every link but the one on
// slot skip, which it came over (Geth 1.8 broadcasts transactions to
// every peer not known to have them: at a first sighting, every link
// but that one). Every message is counted; its delay is computed only
// when the message can still be its receiver's first arrival.
func (f *txFlood) relay(n *Node, skip int32) {
	now := f.sched.Now()
	src := int32(n.id)
	b := n.net.Burst(n.netNode, f.tx.Size, txKind, uint64(f.tx.Hash))
	sent := 0
	for _, l := range n.links {
		if l.slot == skip {
			continue
		}
		sent++
		id := l.peer
		p := f.pos[id]
		if p == settled {
			continue
		}
		if p != unreached && !arrivalLess(floodArrival{at: now + n.net.Floor(n.id, id), from: src}, f.heap[p]) {
			continue // the pending arrival wins even against the floor
		}
		f.tab.delays++
		a := floodArrival{at: now + b.Delay(id), from: src, id: int32(id)}
		switch {
		case p == unreached:
			f.heap = append(f.heap, a)
			f.up(len(f.heap) - 1)
		case arrivalLess(a, f.heap[p]):
			f.heap[p] = a
			f.up(int(p))
		default:
			continue
		}
		f.via[id] = f.tab.nodes[id].known.handle(l.peerSlot)
	}
	n.net.Count(sent)
}

// arm schedules the flood's event at its earliest pending arrival, or
// releases the flood when nothing is pending.
func (f *txFlood) arm() {
	if len(f.heap) > 1 {
		f.sched.ScheduleArg(f.heap[1].at, f, sim.Arg{})
		return
	}
	clear(f.pos)
	f.tx, f.sched = nil, nil
	f.tab.free = append(f.tab.free, f)
}

func arrivalLess(a, b floodArrival) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.from < b.from
}

// popMin removes the earliest pending arrival and returns it.
// The root's hole sinks along the smaller children to a leaf, and the
// last arrival fills it from there: one compare per level instead of
// two, since the last arrival nearly always belongs near the bottom.
func (f *txFlood) popMin() floodArrival {
	h := f.heap
	top := h[1]
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
