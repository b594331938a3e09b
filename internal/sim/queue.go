// The engine's pending-event queue: a multi-rung ladder queue with O(1)
// amortized push and pop that orders events by their unique (at, seq)
// key. It is the only queue the engine runs on. The engine hands out
// seqs in increasing order, so every push carries a seq above all
// pending ones; the queue does not rely on that, and keeps the (at, seq)
// order for a push with a smaller seq too. The test files keep a plain
// binary heap as the reference order; the differential tests and
// FuzzQueueOrder check that the ladder pops exactly its sequence, with
// and without such late seqs.
package sim

import "math/bits"

// qent is one pending event reference: the ordering key plus the slab
// slot it lives in. Entries are self-contained so queue compares and
// moves never touch the slab, and they hold no pointers, so recycled
// bucket arrays need no GC scrubbing.
type qent struct {
	at  Time
	seq uint64
	idx int32
}

// entLess orders entries by (at, seq). seq is unique per engine, so
// this is a total order: no two entries ever compare equal.
func entLess(a, b qent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// rungBuckets is the bucket count of every rung. Must be a multiple of
// 64 (the occupancy bitmap word size); 256 makes a child rung's buckets
// 256 times narrower than the bucket it splits, so a chain of child
// rungs reaches 1 ns buckets within eight levels.
const rungBuckets = 256

// splitLimit is the largest bucket refill heapifies into the bottom
// tier; a fuller bucket becomes a child rung of 256 finer buckets
// instead, so the bottom heap stays a few entries deep however dense
// the head of the queue is. It is also the chunk size of bucket lists,
// so a bucket small enough for the bottom tier is one chunk.
const splitLimit = 32

// spillLimit caps the bottom tier's growth through pushes that land
// below the finest rung's frontier (sub-bucket-width follow-ups to the
// event being run): a bottom grown past it is spilled into a new finest
// rung over [minimum, frontier), which refill then splits as usual.
const spillLimit = 256

// ladder is a multi-rung ladder queue (Tang, Goh & Thng, "Ladder Queue:
// An O(1) priority queue structure for large-scale discrete event
// simulation", ACM TOMACS 2005). Pending entries live in three kinds of
// tier, each holding a half-open time range strictly after the one
// below it:
//
//   - bot, a binary heap of every entry below the finest rung's
//     frontier, so its root is the global minimum;
//   - rungs[:nr], coarsest first, each 256 unsorted power-of-two-width
//     buckets built over an exact interval; rung k covers [its front,
//     rung k-1's front), rung 0 ends at topStart;
//   - top, an unsorted list of every entry at or after topStart.
//
// push routes an entry to the first tier, coarsest first, whose lower
// bound it reaches: an append to top, one subtraction, shift and
// append into a rung bucket, or a heap push into bot. pop takes bot's
// root; when bot is empty, refill takes the finest rung's next
// occupied bucket (a bitmap scan): a bucket of at most splitLimit
// entries is heapified as the new bot, a fuller one becomes a child
// rung over that bucket. An empty finest rung is dropped, and when no
// rung is left the top becomes a new rung. Every entry is thus copied
// a bounded number of times (once per rung it passes through) and the
// bottom heap stays small without any density heuristic.
//
// Every timestamp thus has exactly one home tier, and every tier keeps
// its entries strictly below its upper bound: a rung built from entries
// ends one nanosecond past their maximum, a bucket's end is clamped to
// its rung's, and the lone entry of an empty queue sets topStart just
// past itself. Entries of one timestamp therefore always meet in one
// tier — the bottom heap, or a bucket that reaches it whole — so the
// (at, seq) order holds for any seq, including one pushed after larger
// seqs at the same time. (A tier that kept an entry at its
// bound would pop it ahead of a later push at that bound with a smaller
// seq, which went to the tier above.) Timestamps must stay below
// math.MaxInt64, whose successor is not representable.
//
// Buckets are linked lists of fixed-size chunks from one shared pool,
// not slices: rungs are rebuilt over ever-new intervals, and per-bucket
// slices would each keep their largest-ever array — a coarse rung under
// a transaction flood holds thousands of entries in each bucket the
// flood spans, and which buckets those are moves with every rebuild.
// The pool instead holds about the peak pending count.
//
// The zero value is an empty, usable queue.
type ladder struct {
	n   int // total pending entries
	bot entHeap

	// rungs[:nr] are active; rungs past nr are empty, kept for reuse.
	rungs []rung
	nr    int

	top      []qent
	topStart Time
	topMax   Time // max(topStart-1, every top entry)

	chunks []chunk
	free   int32 // free chunk list: index+1 of its head, 0 when empty
}

// chunk is one piece of a bucket's entry list, or of the free list.
type chunk struct {
	e    [splitLimit]qent
	next int32 // index+1 of the next chunk, 0 for none
}

// bucket is an unsorted entry list: n entries in chunks head..tail,
// every chunk but the tail full.
type bucket struct {
	head, tail, n int32
}

// rung is one level of the ladder: 256 buckets of width 1<<shift
// nanoseconds starting at lo. Buckets below front have been drained
// and stay empty, so the first occupied bucket is the next one due.
type rung struct {
	lo, front Time
	shift     uint
	n         int
	occ       [rungBuckets / 64]uint64
	b         [rungBuckets]bucket
}

// put appends e to its bucket of r; e.at must lie in r's range.
func (l *ladder) put(r *rung, e qent) {
	i := uint64(e.at-r.lo) >> r.shift
	b := &r.b[i]
	k := b.n % splitLimit
	if k == 0 {
		c := l.newChunk()
		if b.n == 0 {
			r.occ[i>>6] |= 1 << (i & 63)
			b.head = c
		} else {
			l.chunks[b.tail].next = c + 1
		}
		b.tail = c
	}
	l.chunks[b.tail].e[k] = e
	b.n++
	r.n++
}

func (l *ladder) newChunk() int32 {
	if c := l.free - 1; c >= 0 {
		l.free = l.chunks[c].next
		l.chunks[c].next = 0
		return c
	}
	l.chunks = append(l.chunks, chunk{})
	return int32(len(l.chunks) - 1)
}

// take empties bucket i of r, appending its entries to dst.
func (l *ladder) take(r *rung, i uint, dst []qent) []qent {
	b := r.b[i]
	for c, left := b.head, b.n; left > 0; c = l.chunks[c].next - 1 {
		dst = append(dst, l.chunks[c].e[:min(left, splitLimit)]...)
		left -= splitLimit
	}
	l.drop(r, i)
	return dst
}

// drop empties bucket i of r, returning its chunks to the free list.
func (l *ladder) drop(r *rung, i uint) {
	b := r.b[i]
	l.chunks[b.tail].next = l.free
	l.free = b.head + 1
	r.b[i] = bucket{}
	r.occ[i>>6] &^= 1 << (i & 63)
	r.n -= int(b.n)
}

// first returns the first occupied bucket. r.n > 0 required.
func (r *rung) first() uint {
	for w, m := range r.occ {
		if m != 0 {
			return uint(w)<<6 | uint(bits.TrailingZeros64(m))
		}
	}
	panic("sim: ladder rung occupancy corrupt")
}

func (l *ladder) size() int { return l.n }

// bound returns the upper bound of rung k's range (k == nr: the bottom
// tier's): the front of the rung above it, or topStart.
func (l *ladder) bound(k int) Time {
	if k == 0 {
		return l.topStart
	}
	return l.rungs[k-1].front
}

func (l *ladder) push(at Time, seq uint64, idx int32) {
	e := qent{at: at, seq: seq, idx: idx}
	l.n++
	if l.n == 1 {
		// Empty queue: the entry alone is the bottom tier and everything
		// later goes to the top. The dominant self-scheduling pattern
		// (pop one event, schedule its successor) never leaves this path.
		l.nr = 0
		l.topStart, l.topMax = at+1, at
		l.bot.h = append(l.bot.h[:0], e)
		return
	}
	if at >= l.topStart {
		l.topMax = max(l.topMax, at)
		l.top = append(l.top, e)
		return
	}
	for k := 0; k < l.nr; k++ {
		if r := &l.rungs[k]; at >= r.front {
			l.put(r, e)
			return
		}
	}
	l.bot.push(e)
	if len(l.bot.h) > spillLimit {
		l.spill()
	}
}

// spill moves the bottom tier into a new finest rung over [minimum,
// bound), unless its entries all sit one nanosecond below the bound (a
// tie group no rung can split; its heap pushes stay cheap).
func (l *ladder) spill() {
	h := l.bot.h
	end := l.bound(l.nr)
	if end-h[0].at <= 1 {
		return
	}
	l.spawn(h, end)
	l.bot.h = h[:0]
}

// spawn adds es, all below end, as the new finest rung covering
// [min(es), end) with the finest bucket width that fits that interval
// in 256 buckets.
func (l *ladder) spawn(es []qent, end Time) {
	lo, hi := es[0].at, es[0].at
	for _, e := range es[1:] {
		lo, hi = min(lo, e.at), max(hi, e.at)
	}
	hi = max(hi, end-1)
	if l.nr == len(l.rungs) {
		l.rungs = append(l.rungs, rung{})
	}
	r := &l.rungs[l.nr]
	l.nr++
	r.lo, r.front = lo, lo
	r.shift = uint(bits.Len64(uint64(hi-lo) >> 8))
	for _, e := range es {
		l.put(r, e)
	}
}

func (l *ladder) peek() (Time, bool) {
	if len(l.bot.h) == 0 && !l.refill() {
		return 0, false
	}
	return l.bot.h[0].at, true
}

func (l *ladder) pop() (int32, bool) {
	h := l.bot.h
	if len(h) == 0 {
		if !l.refill() {
			return 0, false
		}
		h = l.bot.h
	}
	l.n--
	if len(h) == 1 {
		// Skip the root-swap-and-sift of a general heap pop: after a
		// refill of small buckets this is the common case.
		l.bot.h = h[:0]
		return h[0].idx, true
	}
	return l.bot.popMin().idx, true
}

// refill makes the bottom tier non-empty from the finest rung's next
// occupied bucket, splitting full buckets into child rungs and turning
// the top into a rung when no rung is left. Returns false when the
// queue is empty. On entry the bottom tier is empty.
func (l *ladder) refill() bool {
	if l.n == 0 {
		return false
	}
	for {
		if l.nr == 0 {
			l.topStart = l.topMax + 1
			l.spawn(l.top, l.topStart)
			l.top = l.top[:0]
		}
		k := l.nr - 1
		r := &l.rungs[k]
		if r.n == 0 {
			l.nr = k
			continue
		}
		i := r.first()
		// The bucket's end, clamped to the rung's bound; computed in
		// uint64 because a last bucket may end past the int64 range.
		front := uint64(r.lo) + uint64(i+1)<<r.shift
		r.front = Time(min(front, uint64(l.bound(k))))
		// The bottom tier's array doubles as the scratch a full bucket
		// is split from.
		l.bot.h = l.take(r, i, l.bot.h[:0])
		if len(l.bot.h) > splitLimit && r.shift > 0 {
			l.spawn(l.bot.h, r.front)
			l.bot.h = l.bot.h[:0]
			continue
		}
		l.bot.init()
		return true
	}
}

// entHeap is a binary min-heap of qent ordered by (at, seq). It backs
// the ladder's bottom tier.
type entHeap struct {
	h []qent
}

func (q *entHeap) push(e qent) {
	h := append(q.h, e)
	q.h = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !entLess(h[i], h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// popMin removes and returns the minimum entry. len() > 0 required.
func (q *entHeap) popMin() qent {
	h := q.h
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	q.h = h[:last]
	q.siftDown(0)
	return top
}

// siftDown restores the heap invariant below index i.
func (q *entHeap) siftDown(i int) {
	h := q.h
	n := len(h)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && entLess(h[right], h[left]) {
			least = right
		}
		if !entLess(h[least], h[i]) {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// init heapifies q.h in place (Floyd's bottom-up construction, O(n)).
func (q *entHeap) init() {
	for i := len(q.h)/2 - 1; i >= 0; i-- {
		q.siftDown(i)
	}
}
