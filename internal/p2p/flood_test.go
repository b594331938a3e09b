package p2p

import (
	"math/bits"
	"math/rand"
	"testing"

	"ethmeasure/internal/sim"
)

// refQueue is the reference order for floodQueue: the binary min-heap
// of pending arrivals the flood kept before its radix heap, indexed by
// node ID like the flood's slots. It orders arrivals by (at, from, id).
type refQueue struct {
	// pos[id] is unreached, settled, or the index of the node's
	// pending arrival in heap.
	pos []int32
	// heap is rooted at index 1; heap[0] is unused.
	heap []floodArrival
}

func newRefQueue(nodes int) *refQueue {
	return &refQueue{pos: make([]int32, nodes), heap: make([]floodArrival, 1)}
}

func arrivalLess(a, b floodArrival) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.from != b.from {
		return a.from < b.from
	}
	return a.id < b.id
}

// pending returns id's pending arrival, if it has one.
func (r *refQueue) pending(id int32) (floodArrival, bool) {
	if p := r.pos[id]; p > 0 {
		return r.heap[p], true
	}
	return floodArrival{}, false
}

// push makes a its receiver's pending arrival, which must beat the
// pending one if there is one.
func (r *refQueue) push(a floodArrival) {
	if p := r.pos[a.id]; p > 0 {
		r.heap[p] = a
		r.up(int(p))
		return
	}
	r.heap = append(r.heap, a)
	r.up(len(r.heap) - 1)
}

func (r *refQueue) earliest() (sim.Time, bool) {
	if len(r.heap) > 1 {
		return r.heap[1].at, true
	}
	return 0, false
}

// pop removes the earliest pending arrival, settles its node and
// returns it. The root's hole sinks along the smaller children to a
// leaf, and the last arrival fills it from there.
func (r *refQueue) pop() floodArrival {
	h := r.heap
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
		r.pos[h[i].id] = int32(i)
		i = c
	}
	h[i] = h[last]
	r.heap = h[:last]
	if i < last {
		r.up(i)
	}
	r.pos[top.id] = settled
	return top
}

// up restores heap order above index i.
func (r *refQueue) up(i int) {
	h := r.heap
	a := h[i]
	for i > 1 {
		p := i / 2
		if !arrivalLess(a, h[p]) {
			break
		}
		h[i] = h[p]
		r.pos[h[i].id] = int32(i)
		i = p
	}
	h[i] = a
	r.pos[a.id] = int32(i)
}

// opReader hands out a byte string's bytes, then zeros.
type opReader []byte

func (o *opReader) next() byte {
	if len(*o) == 0 {
		return 0
	}
	b := (*o)[0]
	*o = (*o)[1:]
	return b
}

func (o *opReader) done() bool { return len(*o) == 0 }

// driveFloodQueue runs a floodQueue and the reference heap side by
// side through the operations data encodes and fails at the first
// difference in a popped arrival, an earliest time or a node's state.
// Like a flood, it opens at a time, relays (pushes at or after last),
// and settles the earliest arrival; a relay pushes receivers at last
// itself, at the previous delay again (ties on (at, from) with other
// receivers, and on at with other senders), or at short and long
// delays, and replaces pending arrivals it beats. A drained queue is
// reopened at a new time, as a released flood is.
func driveFloodQueue(t *testing.T, data []byte) {
	ops := opReader(data)
	nodes := 2 + int(ops.next())
	var q floodQueue
	q.slots = make([]floodSlot, nodes)
	var ref *refQueue
	var via uint64
	var delay sim.Time
	open := func() {
		ref = newRefQueue(nodes)
		clear(q.slots)
		q.last = sim.Time(ops.next()) << (ops.next() % 48)
		origin := int32(ops.next()) % int32(nodes)
		q.slots[origin].state, ref.pos[origin] = settled, settled
	}
	open()
	for step := 0; !ops.done(); step++ {
		switch op := ops.next(); op % 4 {
		case 0, 1: // a relay from one sender at last
			from := int32(ops.next()) % int32(nodes)
			for k := 1 + int(ops.next()%8); k > 0; k-- {
				id := int32(ops.next()) % int32(nodes)
				switch c := ops.next(); c % 4 {
				case 0:
					delay = 0
				case 1: // the previous delay again
				case 2:
					delay = sim.Time(c)
				case 3:
					delay = sim.Time(c) << (ops.next() % 40)
				}
				if ref.pos[id] == settled {
					continue
				}
				via++
				a := floodArrival{at: q.last + delay, via: via, from: from, id: id}
				if p, ok := ref.pending(id); ok && !arrivalLess(a, p) {
					continue
				}
				ref.push(a)
				q.push(a)
			}
		case 2: // settle the earliest arrival
			want, ok := ref.earliest()
			got, gok := q.earliest()
			if ok != gok || got != want {
				t.Fatalf("step %d: earliest %v (%v), reference %v (%v)", step, got, gok, want, ok)
			}
			if !ok {
				open()
				continue
			}
			if a, w := q.pop(), ref.pop(); a != w {
				t.Fatalf("step %d: popped %+v, reference %+v", step, a, w)
			}
		case 3: // the queue's whole state
			checkFloodQueue(t, step, &q, ref)
		}
	}
	for {
		want, ok := ref.earliest()
		got, gok := q.earliest()
		if ok != gok || got != want {
			t.Fatalf("drain: earliest %v (%v), reference %v (%v)", got, gok, want, ok)
		}
		if !ok {
			break
		}
		if a, w := q.pop(), ref.pop(); a != w {
			t.Fatalf("drain: popped %+v, reference %+v", a, w)
		}
	}
	checkFloodQueue(t, -1, &q, ref)
}

// checkFloodQueue compares every node's state with the reference and
// checks the buckets: consistent links, every arrival in bucket
// bits.Len64(at ^ last) and no earlier than its bucket's low mark, and
// the occupied mask naming exactly the non-empty buckets.
func checkFloodQueue(t *testing.T, step int, q *floodQueue, ref *refQueue) {
	t.Helper()
	pending := 0
	for id := range q.slots {
		s := &q.slots[id]
		w, ok := ref.pending(int32(id))
		switch {
		case ok:
			pending++
			if s.state <= 0 || (floodArrival{at: s.at, via: s.via, from: s.from, id: int32(id)}) != w {
				t.Fatalf("step %d: node %d state %d arrival (%v, %d, %d), reference pending %+v", step, id, s.state, s.at, s.from, s.via, w)
			}
		case s.state != ref.pos[id]:
			t.Fatalf("step %d: node %d state %d, reference %d", step, id, s.state, ref.pos[id])
		}
	}
	linked := 0
	for b := range q.head {
		if q.occupied&(1<<b) == 0 {
			continue
		}
		prev := int32(none)
		for id := q.head[b]; id != none; id = q.slots[id].next {
			s := &q.slots[id]
			if s.prev != prev || s.state != int32(b)+1 || bits.Len64(uint64(s.at^q.last)) != b || s.at < q.low[b] {
				t.Fatalf("step %d: node %d in bucket %d (last %v, low %v): %+v", step, id, b, q.last, q.low[b], *s)
			}
			prev = id
			linked++
		}
		if prev == none {
			t.Fatalf("step %d: bucket %d marked occupied but empty", step, b)
		}
	}
	if linked != pending {
		t.Fatalf("step %d: %d arrivals linked, %d pending", step, linked, pending)
	}
}

// TestFloodQueueMatchesReference drives the radix heap and the binary
// heap through the same relays and settles: pushes, replaced arrivals,
// pushes at exactly last, (at, from) ties with different receivers and
// at ties with different senders, times near powers of two and queues
// drained and reopened.
func TestFloodQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 200+rng.Intn(4000))
		rng.Read(data)
		driveFloodQueue(t, data)
	}
}

// FuzzFloodQueue drives the differential queue over fuzzed operations.
func FuzzFloodQueue(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{16, 64, 256, 1024} {
		data := make([]byte, n)
		rng.Read(data)
		f.Add(data)
	}
	// Ten receivers at the origin's time from one sender, then settles.
	f.Add([]byte{12, 0, 0, 3, 0, 5, 9, 0, 1, 4, 2, 1, 7, 1, 6, 1, 8, 1, 2, 2, 2, 2, 3, 2, 2})
	f.Fuzz(driveFloodQueue)
}
