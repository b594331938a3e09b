package sim

import (
	"math/rand"
	"testing"
	"time"
)

// queue is the pending-event surface the ladder and the reference heap
// share. Both pop slot indices in ascending (at, seq) order.
type queue interface {
	push(at Time, seq uint64, idx int32)
	pop() (idx int32, ok bool)
	peek() (at Time, ok bool)
	size() int
}

var (
	_ queue = (*ladder)(nil)
	_ queue = (*refHeap)(nil)
)

// refHeap is the reference queue: a plain binary min-heap over
// (at, seq). The differential tests prove the ladder pops its
// identical total order.
type refHeap struct {
	q entHeap
}

func (q *refHeap) size() int { return len(q.q.h) }

func (q *refHeap) push(at Time, seq uint64, idx int32) {
	q.q.push(qent{at: at, seq: seq, idx: idx})
}

func (q *refHeap) peek() (Time, bool) {
	if len(q.q.h) == 0 {
		return 0, false
	}
	return q.q.h[0].at, true
}

func (q *refHeap) pop() (int32, bool) {
	if len(q.q.h) == 0 {
		return 0, false
	}
	return q.q.popMin().idx, true
}

// popAll drains q and returns the popped slot indices in order.
func popAll(q queue) []int32 {
	var out []int32
	for {
		idx, ok := q.pop()
		if !ok {
			return out
		}
		out = append(out, idx)
	}
}

// A diffStep decides one differential operation from the queue's
// pending count: pop, or push delta ahead of the current time.
type diffStep func(r *rand.Rand, pending int) (pop bool, delta Time)

// deltaStep pushes two times in three (always when the queue is empty)
// with deltas drawn from next, and pops otherwise.
func deltaStep(next func(r *rand.Rand) Time) diffStep {
	return func(r *rand.Rand, pending int) (bool, Time) {
		if pending > 0 && r.Intn(3) == 0 {
			return true, 0
		}
		return false, next(r)
	}
}

// floodPopulation is the standing population of floodStep.
const floodPopulation = 50_000

// floodStep models a transaction flood at relay scale: the queue fills
// to floodPopulation geo-latency deliveries (8–300 ms out), then every
// pop that leaves it below that population fans out 18 more.
func floodStep() diffStep {
	fan, filled := 0, false
	return func(r *rand.Rand, pending int) (bool, Time) {
		switch {
		case fan > 0:
			fan--
		case !filled && pending < floodPopulation:
		case pending < floodPopulation:
			fan = 17
		default:
			filled = true
			return true, 0
		}
		return false, 8*time.Millisecond + Time(r.Int63n(int64(292*time.Millisecond)))
	}
}

// farFirstStep pushes one event about 6 s out first, then dense
// near-term pushes (tens of microseconds) with pops in between: the
// shape of a campaign whose first scheduled event is a far timer.
func farFirstStep() diffStep {
	first := true
	near := deltaStep(func(r *rand.Rand) Time { return ExpDuration(r, 40*time.Microsecond) })
	return func(r *rand.Rand, pending int) (bool, Time) {
		if first {
			first = false
			return false, 6*time.Second + Time(r.Intn(int(time.Second)))
		}
		return near(r, pending)
	}
}

// runDifferential drives a ladder and a refHeap through the identical
// operation sequence and fails on the first divergence in pop order,
// peek result or size. Because (at, seq) keys are unique, any two
// correct priority queues must agree exactly. "Cancel" in the workload
// sense is realized as pop-and-discard — the engine has no cancel API,
// so removal always happens at the minimum. With late set, pushes also
// reserve seqs and later push with one of them, as a transaction flood
// schedules its next arrival with the seq reserved when the arrival was
// relayed: a push's seq is then often below pending ones.
func runDifferential(t testing.TB, ops int, step diffStep, late bool, r *rand.Rand) {
	t.Helper()
	var lad ladder
	var ref refHeap
	var now Time
	var seq uint64
	var reserved []uint64
	for i := 0; i < ops; i++ {
		if pop, delta := step(r, ref.size()); pop {
			li, lok := lad.pop()
			ri, rok := ref.pop()
			if li != ri || lok != rok {
				t.Fatalf("op %d: ladder popped (%d,%v), heap popped (%d,%v)", i, li, lok, ri, rok)
			}
		} else {
			if late && r.Intn(4) == 0 {
				seq++
				reserved = append(reserved, seq)
			}
			s := seq + 1
			if k := len(reserved); late && k > 0 && r.Intn(2) == 0 {
				j := r.Intn(k)
				s = reserved[j]
				reserved[j] = reserved[k-1]
				reserved = reserved[:k-1]
			} else {
				seq++
			}
			at := now + delta
			idx := int32(s)
			lad.push(at, s, idx)
			ref.push(at, s, idx)
		}
		lp, lok := lad.peek()
		rp, rok := ref.peek()
		if lp != rp || lok != rok {
			t.Fatalf("op %d: ladder peek (%v,%v), heap peek (%v,%v)", i, lp, lok, rp, rok)
		}
		if lok {
			now = lp
		}
		if lad.size() != ref.size() {
			t.Fatalf("op %d: ladder size %d, heap size %d", i, lad.size(), ref.size())
		}
	}
	li, ri := popAll(&lad), popAll(&ref)
	if len(li) != len(ri) {
		t.Fatalf("drain lengths differ: ladder %d, heap %d", len(li), len(ri))
	}
	for i := range li {
		if li[i] != ri[i] {
			t.Fatalf("drain[%d]: ladder %d, heap %d", i, li[i], ri[i])
		}
	}
}

// TestLadderMatchesRefHeap is the queue-level differential suite: the
// ladder must pop the exact (at, seq) total order of the reference
// heap across regimes that exercise every tier — bottom-tier inserts
// and spills (zero and tiny deltas, ties at one instant), rung buckets
// and child rungs (mid-range deltas), the top (heavy-tailed and huge
// deltas), a far first event ahead of dense near-term traffic, and a
// relay-scale flood of 50 000 pending deliveries — and the late-*
// regimes repeat the tie-heavy and delivery shapes with pushes that
// carry earlier-reserved seqs.
func TestLadderMatchesRefHeap(t *testing.T) {
	type regime struct {
		ops, seeds int
		step       func() diffStep
		late       bool
	}
	deltas := func(next func(r *rand.Rand) Time) regime {
		return regime{8_000, 8, func() diffStep { return deltaStep(next) }, false}
	}
	lateDeltas := func(next func(r *rand.Rand) Time) regime {
		rg := deltas(next)
		rg.late = true
		return rg
	}
	regimes := map[string]regime{
		"ties": deltas(func(r *rand.Rand) Time {
			return Time(r.Intn(3)) * time.Millisecond
		}),
		"micro": deltas(func(r *rand.Rand) Time {
			return Time(r.Intn(2000)) * time.Nanosecond
		}),
		"delivery": deltas(func(r *rand.Rand) Time {
			d := ExpDuration(r, 25*time.Millisecond)
			if r.Intn(2) == 0 {
				return d + 8*time.Millisecond
			}
			return d + 120*time.Millisecond
		}),
		"heavytail": deltas(func(r *rand.Rand) Time {
			if r.Intn(16) == 0 {
				return ExpDuration(r, 10*time.Hour)
			}
			return ExpDuration(r, time.Millisecond)
		}),
		"horizon": deltas(func(r *rand.Rand) Time {
			return ExpDuration(r, 30*24*time.Hour)
		}),
		"far-first": {8_000, 8, farFirstStep, false},
		"flood":     {200_000, 2, floodStep, false},
		"late-ties": lateDeltas(func(r *rand.Rand) Time {
			return Time(r.Intn(3)) * time.Millisecond
		}),
		"late-nanos": lateDeltas(func(r *rand.Rand) Time {
			return Time(r.Intn(4)) * time.Nanosecond
		}),
		"late-delivery": lateDeltas(func(r *rand.Rand) Time {
			if r.Intn(2) == 0 {
				return Time(r.Intn(3)) * time.Millisecond
			}
			return 8*time.Millisecond + Time(r.Intn(40))*time.Millisecond
		}),
		"late-flood": {100_000, 2, floodStep, true},
	}
	for name, rg := range regimes {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(rg.seeds); seed++ {
				runDifferential(t, rg.ops, rg.step(), rg.late, NewStream(seed, "queue-diff", uint64(seed)))
			}
		})
	}
}

// queuePair drives a ladder and the reference heap in lockstep, for
// hand-built operation sequences.
type queuePair struct {
	t   *testing.T
	lad ladder
	ref refHeap
}

func (p *queuePair) push(at Time, seq uint64) {
	p.lad.push(at, seq, int32(seq))
	p.ref.push(at, seq, int32(seq))
}

func (p *queuePair) pop() {
	p.t.Helper()
	li, lok := p.lad.pop()
	ri, rok := p.ref.pop()
	if li != ri || lok != rok {
		p.t.Fatalf("ladder popped (%d,%v), heap popped (%d,%v)", li, lok, ri, rok)
	}
}

func (p *queuePair) drain() {
	p.t.Helper()
	for p.ref.size() > 0 {
		p.pop()
	}
	p.pop() // both empty
}

// TestLadderLateSeqAtTierBounds pins the half-open tier ranges. Each
// case leaves an entry at exactly a tier bound — the start of the top,
// a bucket front clamped to its rung's bound, the bound of a spilled
// bottom tier — and then pushes the same timestamp with a smaller,
// earlier-reserved seq, which must pop first. A ladder whose tiers keep
// entries at their own upper bound sends that push to the tier above
// and pops the two out of (at, seq) order.
func TestLadderLateSeqAtTierBounds(t *testing.T) {
	cases := map[string]func(p *queuePair){
		// The lone entry of an empty queue is the bottom tier; the late
		// push ties with it.
		"top start": func(p *queuePair) {
			p.push(1000, 2)
			p.push(1000, 1)
		},
		// The top becomes a rung over [100, 1000]; its last bucket's
		// front is clamped to the rung's bound, and refilling it leaves
		// the entry at 1000 in the bottom tier.
		"clamped bucket front": func(p *queuePair) {
			p.push(0, 2)
			p.push(100, 3)
			p.push(1000, 4)
			p.pop()
			p.pop()
			_, _ = p.lad.peek()
			p.push(1000, 1)
		},
		// The bottom tier holding the entry at the bound grows past
		// spillLimit and spills into a rung that ends at that bound.
		"spill": func(p *queuePair) {
			p.push(0, 2)
			p.push(100, 3)
			p.push(1000, 4)
			p.pop()
			p.pop()
			_, _ = p.lad.peek()
			seq := uint64(10)
			for i := 0; i <= spillLimit; i++ {
				seq++
				p.push(Time(200+i), seq)
			}
			p.push(1000, 1)
		},
		// A child rung split from a full bucket, then a tie group at
		// its front with interleaved late seqs.
		"child rung": func(p *queuePair) {
			seq := uint64(1000)
			for i := 0; i < 4*splitLimit; i++ {
				seq++
				p.push(Time(i%7)*10, seq)
			}
			p.push(5000, seq+1)
			p.pop()
			for i := uint64(1); i <= 40; i++ {
				p.push(Time(i%7)*10, i)
				p.push(60, 500+i)
			}
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			p := &queuePair{t: t}
			run(p)
			p.drain()
		})
	}
}

// TestLadderTierBounded pins the shape that makes the ladder fast: on
// the relay-scale flood the bottom heap every pop works on stays a few
// entries deep, never outgrows spillLimit, and the ladder stays a few
// rungs tall. (The single-rung ladder it replaced popped this workload
// from a current-tier heap of thousands of entries.)
func TestLadderTierBounded(t *testing.T) {
	var l ladder
	step := floodStep()
	r := NewStream(1, "queue-tier", 1)
	var now Time
	var seq uint64
	pops, botSum, botMax, rungMax := 0, 0, 0, 0
	for i := 0; i < 300_000; i++ {
		if pop, delta := step(r, l.size()); pop {
			now, _ = l.peek()
			bot, _ := l.tiers()
			pops++
			botSum += bot
			botMax = max(botMax, bot)
			l.pop()
		} else {
			seq++
			l.push(now+delta, seq, int32(seq))
		}
		_, rungs := l.tiers()
		rungMax = max(rungMax, rungs)
	}
	mean := float64(botSum) / float64(pops)
	t.Logf("%d pops: bottom mean %.1f max %d, rungs max %d", pops, mean, botMax, rungMax)
	if pops < 100_000 {
		t.Fatalf("flood popped only %d times", pops)
	}
	if mean > 2*splitLimit {
		t.Errorf("pop-weighted mean bottom size %.1f, want <= %d", mean, 2*splitLimit)
	}
	if botMax > spillLimit {
		t.Errorf("bottom tier reached %d entries at a pop, want <= %d", botMax, spillLimit)
	}
	if rungMax > 8 {
		t.Errorf("ladder grew %d rungs, want <= 8", rungMax)
	}
}

// TestLadderTieFloodStaysInBottom pins the spill guard: a tie group no
// rung can split (zero-delay follow-ups at one instant) stays in the
// bottom heap instead of being spilled into a new rung on every push.
func TestLadderTieFloodStaysInBottom(t *testing.T) {
	var l ladder
	var seq uint64
	push := func(at Time) {
		seq++
		l.push(at, seq, int32(seq))
	}
	push(time.Second)
	for i := 0; i < 1000; i++ {
		push(0)
	}
	for i := 0; i < 5000; i++ {
		l.pop()
		push(0)
		if bot, rungs := l.tiers(); rungs > 8 {
			t.Fatalf("step %d: %d rungs (bottom %d) for one tie group", i, rungs, bot)
		}
	}
}

// fuzzPush encodes a FuzzQueueOrder push of mag·40 µs (mag 1–63).
func fuzzPush(mag int) byte { return 2 | byte(mag)<<2 }

// farFirstFuzzSeed is the far-first regime in FuzzQueueOrder's
// encoding: one push 3 h out, then dense pushes 40 µs–2.5 ms out with
// a pop after every two.
func farFirstFuzzSeed() []byte {
	b := []byte{3 | 1<<2}
	for i := 0; i < 900; i++ {
		if i%3 == 2 {
			b = append(b, 0)
		} else {
			b = append(b, fuzzPush(1+i*37%63))
		}
	}
	return b
}

// floodFuzzSeed is the flood regime in FuzzQueueOrder's encoding, at a
// standing population of 2 000 rather than 50 000 so the fuzzer's
// mutation and minimization of inputs derived from it stay fast: fill
// with pushes 40 µs–2.5 ms out, then cycles of one pop fanning out 18
// pushes followed by 17 plain pops.
func floodFuzzSeed() []byte {
	var b []byte
	for i := 0; i < 2_000; i++ {
		b = append(b, fuzzPush(1+i*37%63))
	}
	for c := 0; c < 100; c++ {
		b = append(b, 0)
		for i := 0; i < 18; i++ {
			b = append(b, fuzzPush(1+(c*18+i)*29%63))
		}
		for i := 0; i < 17; i++ {
			b = append(b, 0)
		}
	}
	return b
}

// lateSeqFuzzSeed is the tier-bound late-seq case in FuzzQueueOrder's
// encoding: reserve a seq, push at 10 ns, then push the reserved seq
// at that same time; then a spread of pushes, a pop, and repeated
// reserve/late-push pairs tying with the latest push at several bounds.
func lateSeqFuzzSeed() []byte {
	b := []byte{fuzzReserve, 1 | 10<<2, fuzzLatePush(0)}
	for i := 0; i < 40; i++ {
		b = append(b, fuzzReserve, fuzzPush(1+i*11%63), 1|byte(i%5)<<2, fuzzLatePush(0))
		if i%3 == 0 {
			b = append(b, 0, fuzzLatePush(1+i%4))
		}
	}
	return b
}

// fuzzReserve encodes a FuzzQueueOrder seq reservation.
const fuzzReserve = 1 << 2

// fuzzLatePush encodes a FuzzQueueOrder push with the latest reserved
// seq, off ns after the later of the clock and the previous push.
func fuzzLatePush(off int) byte { return byte(off+1) << 3 }

// FuzzQueueOrder drives both queue implementations from raw bytes:
// two bits select the operation and the remaining six its magnitude.
// Operations 1–3 push with the next seq, at a delta ranging from exact
// ties through bucket-scale to far-future. Operation 0 pops at
// magnitude 0, reserves a seq at odd magnitudes, and at even ones
// pushes with the latest reserved seq — below pending seqs, as a
// transaction flood schedules — at a time tied to (or a few ns past)
// the previous push. The ladder must match the reference heap's pop
// order on every input.
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 255, 254, 17, 0, 0, 129})
	f.Add([]byte{255, 255, 255, 0, 0, 0, 1, 1})
	f.Add([]byte{7})
	f.Add(farFirstFuzzSeed())
	f.Add(floodFuzzSeed())
	f.Add(lateSeqFuzzSeed())
	f.Fuzz(func(t *testing.T, data []byte) {
		var lad ladder
		var ref refHeap
		var now, last Time
		var seq uint64
		var reserved []uint64
		for i, b := range data {
			op := b & 3
			mag := Time(b >> 2)
			if op == 0 && mag == 0 && ref.size() > 0 {
				li, lok := lad.pop()
				ri, rok := ref.pop()
				if li != ri || lok != rok {
					t.Fatalf("byte %d: ladder popped (%d,%v), heap popped (%d,%v)", i, li, lok, ri, rok)
				}
				continue
			}
			if op == 0 && mag%2 == 1 {
				seq++
				reserved = append(reserved, seq)
				continue
			}
			at := now
			s := seq + 1
			switch op {
			case 0:
				if mag == 0 { // a pop on an empty queue pushes at now
					seq++
					break
				}
				at = max(now, last) + (mag/2-1)*time.Nanosecond
				if k := len(reserved); k > 0 {
					s = reserved[k-1]
					reserved = reserved[:k-1]
				} else {
					seq++
				}
			case 1:
				at += mag * time.Nanosecond
				seq++
			case 2:
				at += mag * 40 * time.Microsecond
				seq++
			default:
				at += mag * 3 * time.Hour
				seq++
			}
			last = at
			lad.push(at, s, int32(s))
			ref.push(at, s, int32(s))
			lp, lok := lad.peek()
			rp, rok := ref.peek()
			if lp != rp || lok != rok {
				t.Fatalf("byte %d: ladder peek (%v,%v), heap peek (%v,%v)", i, lp, lok, rp, rok)
			}
			now = lp
		}
		li, ri := popAll(&lad), popAll(&ref)
		for i := range li {
			if li[i] != ri[i] {
				t.Fatalf("drain[%d]: ladder %d, heap %d", i, li[i], ri[i])
			}
		}
		if len(li) != len(ri) {
			t.Fatalf("drain lengths differ: ladder %d, heap %d", len(li), len(ri))
		}
	})
}

// TestLadderOverflowSpill pins an event far beyond a fine bucket
// width: it must still pop in order once near-future pushes, popped as
// they go, have dragged the clock close to it and past it.
func TestLadderOverflowSpill(t *testing.T) {
	var l ladder
	// Two nanosecond-scale initial events build a fine first rung.
	l.push(0, 1, 1)
	l.push(200, 2, 2)
	// Far beyond the first rung's range: goes to the top.
	l.push(100_000, 3, 3)
	// Walk the clock toward the far entry with near pushes, popping as
	// we go, then past it: the far entry must surface in (at, seq)
	// order, not after the later near entries.
	var ref refHeap
	ref.push(0, 1, 1)
	ref.push(200, 2, 2)
	ref.push(100_000, 3, 3)
	seq := uint64(3)
	at := Time(200)
	for i := 0; i < 600; i++ {
		at += 170
		seq++
		l.push(at, seq, int32(seq))
		ref.push(at, seq, int32(seq))
		if i%2 == 0 {
			li, _ := l.pop()
			ri, _ := ref.pop()
			if li != ri {
				t.Fatalf("step %d: ladder popped %d, heap popped %d", i, li, ri)
			}
		}
	}
	li, ri := popAll(&l), popAll(&ref)
	if len(li) != len(ri) {
		t.Fatalf("drain lengths differ: %d vs %d", len(li), len(ri))
	}
	for i := range li {
		if li[i] != ri[i] {
			t.Fatalf("drain[%d]: ladder %d, heap %d", i, li[i], ri[i])
		}
	}
}

// tiers reports the bottom tier's size and the active rung count.
func (l *ladder) tiers() (bottom, rungs int) { return len(l.bot.h), l.nr }
