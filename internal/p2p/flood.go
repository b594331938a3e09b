package p2p

import (
	"math/bits"

	"ethmeasure/internal/sim"
	"ethmeasure/internal/types"
)

// txFlood is one transaction spreading from its origin across the
// network. It keeps every relayed message that can still be a first
// sighting as a pending arrival (time, sender, receiver) in its queue
// and owns exactly one engine event, at its earliest pending arrival:
// the event settles that arrival's node, relays from it, and re-arms at
// the new earliest. Arrivals at one instant settle by sender ID, then
// receiver ID, the lower first, so a flood's outcome depends only on
// the graph, the seed and the transaction, not on the order of any
// events.
//
// Every relayed message is counted, but a message to a node that is
// already settled in the flood, or that has a pending arrival the
// message cannot beat even at the pair's delay floor, is dead whatever
// its delay: its delay is never computed. A live message's delay is
// computed, and the message becomes the receiver's pending arrival if
// it beats the pending one, which it replaces. No dead delivery ever
// becomes an event.
//
// A transaction floods once (SubmitTx ignores a repeated submission),
// so a node holds the transaction exactly when it is settled in the
// transaction's flood: the flood is the only record of who has sighted
// what, and nodes keep no per-transaction state.
type txFlood struct {
	tx    *types.Transaction
	sched *sim.Engine
	tab   *table
	q     floodQueue
}

// floodArrival is one pending arrival: the delivery time of the
// message, the IDs of its sender and receiver, and the receiver's
// handle for the link it comes over.
type floodArrival struct {
	at       sim.Time
	via      uint64
	from, id int32
}

// floodQueue holds a flood's pending arrivals, at most one per node,
// as a monotone radix heap. last is the time of the latest settled
// arrival (the flood's opening time before the first); a relay at
// last only adds arrivals at or after it, so no arrival is ever
// earlier than last. A pending arrival at time at sits in bucket
// bits.Len64(at ^ last): bucket 0 holds the arrivals at last itself,
// and bucket b > 0 those that first differ from last in bit b-1, all
// later than every arrival in a lower bucket.
//
// A bucket's low mark is the earliest time linked into it since it was
// last empty. It is no later than any arrival still in the bucket, and
// it stays in the bucket's range after its own arrival was replaced.
// earliest makes the lowest non-empty bucket's mark the new last and
// moves that bucket's arrivals down against it, which leaves every
// other bucket in place; pop then takes bucket 0's lowest (sender,
// receiver).
//
// A bucket is a doubly linked list threaded through the per-node
// slots, so replacing a node's pending arrival is an unlink and a link,
// and a queue allocates nothing once its slots are sized.
type floodQueue struct {
	slots    []floodSlot  // by node ID, sized to the network
	head     [64]int32    // each bucket's first node, while occupied
	low      [64]sim.Time // each bucket's low mark, while occupied
	occupied uint64       // bit b set while bucket b holds an arrival
	last     sim.Time
}

// floodSlot is a node's state in a flood: unreached, settled, or
// pending, then with its arrival and its neighbours in its bucket.
type floodSlot struct {
	at         sim.Time
	via        uint64
	from       int32
	state      int32 // unreached, settled, or 1 + the arrival's bucket
	next, prev int32 // bucket neighbours, or none
}

// Node states in floodSlot.state besides a bucket.
const (
	unreached = 0
	settled   = -1
)

// none ends a bucket list.
const none = -1

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
		f = &txFlood{tab: tab}
	}
	if nodes := n.net.NumNodes(); len(f.q.slots) < nodes {
		f.q.slots = make([]floodSlot, nodes)
	}
	f.tx, f.sched = tx, n.sched
	f.q.last = n.sched.Now()
	f.q.slots[n.id].state = settled
	f.relay(n, -1)
	f.arm()
}

// HandleSimEvent settles the earliest pending arrival (sim.Handler):
// the node sights the transaction for the first time and relays it.
func (f *txFlood) HandleSimEvent(sim.Arg) {
	a := f.q.pop()
	n := f.tab.nodes[a.id]
	if n.Observer != nil {
		n.Observer.ObserveTx(f.sched.Now(), f.tx, types.NodeID(a.from))
	}
	if n.TxSink != nil {
		n.TxSink(f.tx)
	}
	f.relay(n, n.known.resolve(a.via))
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
		s := &f.q.slots[l.peer]
		if s.state == settled {
			continue
		}
		if s.state != unreached && !s.beatenBy(now+n.net.Floor(n.id, l.peer), src) {
			continue // the pending arrival wins even against the floor
		}
		f.tab.delays++
		at := now + b.Delay(l.peer)
		if s.state != unreached && !s.beatenBy(at, src) {
			continue
		}
		f.q.push(floodArrival{at: at, via: f.tab.nodes[l.peer].known.handle(l.peerSlot), from: src, id: int32(l.peer)})
	}
	n.net.Count(sent)
}

// arm schedules the flood's event at its earliest pending arrival, or
// releases the flood when nothing is pending.
func (f *txFlood) arm() {
	if at, ok := f.q.earliest(); ok {
		f.sched.ScheduleArg(at, f, sim.Arg{})
		return
	}
	clear(f.q.slots)
	f.tx, f.sched = nil, nil
	f.tab.free = append(f.tab.free, f)
}

// beatenBy reports whether an arrival at time at from sender from comes
// before the node's pending arrival. Both reach the same node, so the
// earlier time wins, and at one time the lower sender ID.
func (s *floodSlot) beatenBy(at sim.Time, from int32) bool {
	return at < s.at || at == s.at && from < s.from
}

// push makes a its receiver's pending arrival. a must not be earlier
// than last, and it must beat the receiver's pending arrival if there
// is one, which it replaces.
func (q *floodQueue) push(a floodArrival) {
	s := &q.slots[a.id]
	if s.state != unreached {
		q.unlink(a.id)
	}
	s.at, s.via, s.from = a.at, a.via, a.from
	q.link(a.id, bits.Len64(uint64(a.at^q.last)))
}

// earliest returns the time of the earliest pending arrival, which
// becomes last, and leaves every arrival at that time in bucket 0. It
// reports false when nothing is pending.
func (q *floodQueue) earliest() (sim.Time, bool) {
	if q.occupied == 0 {
		return 0, false
	}
	for q.occupied&1 == 0 {
		// Every arrival in bucket b shares its low mark's bits from
		// b-1 up, so each lands in a lower bucket against it. The mark
		// of a replaced arrival may leave bucket 0 empty: then the next
		// lowest bucket follows.
		b := bits.TrailingZeros64(q.occupied)
		q.last = q.low[b]
		q.occupied &^= 1 << b
		for id := q.head[b]; id != none; {
			next := q.slots[id].next
			q.link(id, bits.Len64(uint64(q.slots[id].at^q.last)))
			id = next
		}
	}
	return q.last, true
}

// pop settles and returns the pending arrival at last with the lowest
// sender, then receiver, ID. earliest must have reported an arrival,
// and nothing may have been pushed since.
func (q *floodQueue) pop() floodArrival {
	best := q.head[0]
	for id := q.slots[best].next; id != none; id = q.slots[id].next {
		if s := &q.slots[id]; s.from < q.slots[best].from || s.from == q.slots[best].from && id < best {
			best = id
		}
	}
	q.unlink(best)
	s := &q.slots[best]
	s.state = settled
	return floodArrival{at: s.at, via: s.via, from: s.from, id: best}
}

// link puts the pending node id at the front of bucket b.
func (q *floodQueue) link(id int32, b int) {
	s := &q.slots[id]
	s.state, s.prev, s.next = int32(b)+1, none, none
	if q.occupied&(1<<b) == 0 {
		q.low[b] = s.at
	} else {
		s.next = q.head[b]
		q.slots[s.next].prev = id
		q.low[b] = min(q.low[b], s.at)
	}
	q.head[b] = id
	q.occupied |= 1 << b
}

// unlink takes the pending node id out of its bucket.
func (q *floodQueue) unlink(id int32) {
	s := &q.slots[id]
	b := s.state - 1
	if s.prev != none {
		q.slots[s.prev].next = s.next
	} else {
		q.head[b] = s.next
	}
	if s.next != none {
		q.slots[s.next].prev = s.prev
	} else if s.prev == none {
		q.occupied &^= 1 << b
	}
}
