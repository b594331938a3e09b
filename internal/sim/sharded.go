// Sharded is a conservative parallel discrete-event scheduler
// (Chandy-Misra-Bryant style): nodes are partitioned into shards, each
// shard owns a serial Engine and a goroutine, and shards advance
// together in bounded lookahead windows. The lookahead is the minimum
// cross-shard delivery delay the model can produce, so no message sent
// during a window can land inside that same window — every shard can
// execute its local events up to the window bound without hearing from
// the others, and cross-shard sends are exchanged at the barrier
// through per-pair SPSC outboxes.
//
// Serial state (mining, transaction generation, chain registry) stays
// on a separate "global" engine that only runs between windows, so
// code that was written for the single-threaded engine keeps its
// exclusive-access guarantees. Shard-side callbacks that must touch
// serial state hand a closure to Defer; the coordinator replays all
// deferred calls at the barrier in deterministic (time, shard, FIFO)
// order.
package sim

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

const maxTime = Time(math.MaxInt64)

// xev is one cross-shard event in transit: the absolute delivery time
// plus the handler payload the Engine slab stores.
type xev struct {
	at  Time
	h   Handler
	arg Arg
}

// deferredCall is a serial-state callback captured during a parallel
// window, replayed at the barrier.
type deferredCall struct {
	at Time
	fn func()
}

// windowCmd tells a shard worker to run one lookahead window: execute
// local events strictly below limit, then advance the local clock to
// advance (≤ limit; the two differ only at the horizon).
type windowCmd struct {
	limit   Time
	advance Time
}

// Shard is one partition of a Sharded scheduler. It implements
// Scheduler (components on this shard schedule into its local engine)
// and Deferrer (callbacks that need serial state run at the barrier).
type Shard struct {
	idx    int
	parent *Sharded
	eng    Engine

	// outbox[dst] collects cross-shard sends made during the current
	// window; outMin[dst] tracks their earliest delivery time. Written
	// only by this shard's goroutine during a window, consumed by the
	// coordinator at the barrier.
	outbox [][]xev
	outMin []Time

	// inbox[src] holds events handed over at a barrier, drained into
	// the local heap at the start of this shard's next window.
	// pendingMin is the earliest timestamp waiting in any inbox.
	inbox      [][]xev
	pendingMin Time

	deferred []deferredCall
	defHead  int

	cmd chan windowCmd
}

// Sharded coordinates NumShards shard engines plus one global serial
// engine under a common virtual clock.
type Sharded struct {
	global    *Engine
	shards    []*Shard
	lookahead Time

	// parallel is true while shard goroutines are executing a window.
	// It is written by the coordinator only at window boundaries; the
	// cmd/done channel operations order those writes against every
	// shard-side read.
	parallel bool
	stopped  atomic.Bool
	done     chan int

	// scrubbed records that Scrub already swept the shard queues and
	// slabs, letting NewShardedReusing skip the sweeps on the build
	// path.
	scrubbed bool
}

// NewSharded wraps the given serial engine as the global scheduler of
// a sharded run with numShards shard engines and the given lookahead.
// The lookahead must be positive and no larger than the minimum
// cross-shard delivery delay the caller's network model can produce;
// Route panics when a send violates it, since that would break the
// determinism contract.
func NewSharded(global *Engine, numShards int, lookahead Time) *Sharded {
	if numShards < 1 {
		panic(fmt.Sprintf("sim: shard count must be at least 1, got %d", numShards))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: lookahead must be positive, got %v", lookahead))
	}
	sh := &Sharded{
		global:    global,
		lookahead: lookahead,
		shards:    make([]*Shard, numShards),
	}
	for i := range sh.shards {
		s := &Shard{
			idx:        i,
			parent:     sh,
			outbox:     make([][]xev, numShards),
			outMin:     make([]Time, numShards),
			inbox:      make([][]xev, numShards),
			pendingMin: maxTime,
		}
		s.eng.seed = global.Seed()
		s.eng.initQueue()
		for d := range s.outMin {
			s.outMin[d] = maxTime
		}
		sh.shards[i] = s
	}
	return sh
}

// NewShardedReusing is NewSharded drawing on a previous run's
// coordinator: when old is non-nil and its shard count matches, the
// shard engines, exchange queues and deferred buffers are reset in
// place (keeping their backing arrays) instead of reallocated. Any
// mismatch falls back to a fresh NewSharded. The reset state is
// bit-identical to cold construction — capacity is the only thing
// carried over, and capacity is never observable by the simulation.
func NewShardedReusing(old *Sharded, global *Engine, numShards int, lookahead Time) *Sharded {
	if old == nil || len(old.shards) != numShards {
		return NewSharded(global, numShards, lookahead)
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: lookahead must be positive, got %v", lookahead))
	}
	old.global = global
	old.lookahead = lookahead
	old.parallel = false
	old.stopped.Store(false)
	scrubbed := old.scrubbed
	old.scrubbed = false
	for _, s := range old.shards {
		// Always re-seed (the new run's seed differs); the slab sweep
		// inside Reset is free when Scrub already emptied the engine.
		s.eng.Reset(global.Seed())
		if scrubbed {
			continue
		}
		scrubShard(s)
	}
	return old
}

// Scrub sweeps every shard back to its post-construction state ahead
// of time, so a later NewShardedReusing call on this instance is pure
// field reassignment. Pools call it at recycle time, moving the queue
// and slab sweeps off the next run's build path. Safe only between
// runs (never concurrently with Run).
func (sh *Sharded) Scrub() {
	for _, s := range sh.shards {
		s.eng.Reset(s.eng.Seed())
		scrubShard(s)
	}
	sh.scrubbed = true
}

// scrubShard empties one shard's cross-shard queues and deferred ring.
func scrubShard(s *Shard) {
	for d := range s.outbox {
		s.outbox[d] = clearXevs(s.outbox[d])
		s.outMin[d] = maxTime
	}
	for src := range s.inbox {
		s.inbox[src] = clearXevs(s.inbox[src])
	}
	s.pendingMin = maxTime
	def := s.deferred[:cap(s.deferred)]
	clear(def)
	s.deferred = def[:0]
	s.defHead = 0
}

// clearXevs zeroes a queue over its full capacity (releasing handler
// and payload references the GC would otherwise keep reachable through
// the backing array) and truncates it for reuse.
func clearXevs(q []xev) []xev {
	q = q[:cap(q)]
	clear(q)
	return q[:0]
}

// Global returns the serial engine: the scheduler for mining,
// transaction generation and every other component that must see a
// single consistent timeline.
func (sh *Sharded) Global() *Engine { return sh.global }

// NumShards returns the shard count.
func (sh *Sharded) NumShards() int { return len(sh.shards) }

// Shard returns shard i's scheduler.
func (sh *Sharded) Shard(i int) *Shard { return sh.shards[i] }

// Lookahead returns the window lookahead.
func (sh *Sharded) Lookahead() Time { return sh.lookahead }

// Now returns the serial timeline's current virtual time.
func (sh *Sharded) Now() Time { return sh.global.Now() }

// EventsRun returns the total events executed across the global engine
// and all shards. Only meaningful between windows (Run not active).
func (sh *Sharded) EventsRun() uint64 {
	total := sh.global.EventsRun()
	for _, s := range sh.shards {
		total += s.eng.EventsRun()
	}
	return total
}

// Stop halts the run at the next barrier or coordinator step, or the
// next Run before it starts. Safe to call from any goroutine, including
// a shard callback mid-window.
func (sh *Sharded) Stop() { sh.stopped.Store(true) }

// Route schedules the delivery of an allocation-free event on shard
// dst after delay d, as measured on shard src's clock. During a
// window, same-shard sends go straight into the local heap and
// cross-shard sends are queued for the barrier; between windows the
// coordinator injects directly.
func (sh *Sharded) Route(src, dst int, d time.Duration, h Handler, arg Arg) {
	if d < 0 {
		d = 0
	}
	s := sh.shards[src]
	at := s.Now() + d
	if !sh.parallel {
		sh.shards[dst].eng.ScheduleArg(at, h, arg)
		return
	}
	if src == dst {
		s.eng.ScheduleArg(at, h, arg)
		return
	}
	if d < sh.lookahead {
		panic(fmt.Sprintf("sim: cross-shard send with delay %v below lookahead %v", d, sh.lookahead))
	}
	s.outbox[dst] = append(s.outbox[dst], xev{at: at, h: h, arg: arg})
	if at < s.outMin[dst] {
		s.outMin[dst] = at
	}
}

// Now returns the shard's local clock during a window and the serial
// timeline between windows, so components scheduling relative work see
// a consistent "current time" in both phases.
func (s *Shard) Now() Time {
	if s.parent.parallel {
		return s.eng.now
	}
	return s.parent.global.now
}

// Schedule runs fn at the given absolute virtual time on this shard.
func (s *Shard) Schedule(at Time, fn func()) { s.eng.Schedule(at, fn) }

// ScheduleArg runs h.HandleSimEvent(arg) at the given absolute virtual
// time on this shard without allocating.
func (s *Shard) ScheduleArg(at Time, h Handler, arg Arg) { s.eng.ScheduleArg(at, h, arg) }

// ReserveSeq claims the next tie-break sequence number of this shard's
// engine (see Engine.ReserveSeq).
func (s *Shard) ReserveSeq() uint64 { return s.eng.ReserveSeq() }

// ScheduleReserved runs h.HandleSimEvent(arg) at the given absolute
// virtual time on this shard, ordered by a seq from this shard's
// ReserveSeq (see Engine.ScheduleReserved).
func (s *Shard) ScheduleReserved(at Time, seq uint64, h Handler, arg Arg) {
	s.eng.ScheduleReserved(at, seq, h, arg)
}

// After runs fn after the given delay on this shard.
func (s *Shard) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.eng.Schedule(s.Now()+d, fn)
}

// AfterArg runs h.HandleSimEvent(arg) after the given delay on this
// shard without allocating.
func (s *Shard) AfterArg(d time.Duration, h Handler, arg Arg) {
	if d < 0 {
		d = 0
	}
	s.eng.ScheduleArg(s.Now()+d, h, arg)
}

// Defer hands fn to the coordinator: during a window it is queued and
// replayed at the barrier in (time, shard, FIFO) order with exclusive
// access to serial state; between windows it runs inline.
func (s *Shard) Defer(fn func()) {
	if s.parent.parallel {
		s.deferred = append(s.deferred, deferredCall{at: s.eng.now, fn: fn})
		return
	}
	fn()
}

// effNext returns the shard's earliest runnable timestamp, counting
// both the local heap and undrained inbox events.
func (s *Shard) effNext() (Time, bool) {
	t, ok := s.eng.NextAt()
	if s.pendingMin < maxTime && (!ok || s.pendingMin < t) {
		return s.pendingMin, true
	}
	return t, ok
}

// drainInbox moves barrier-exchanged events into the local heap. The
// fixed (source shard, FIFO) order assigns local sequence numbers
// deterministically, which is what realizes the (time, shard, seq)
// tie-break for same-timestamp cross-shard events.
func (s *Shard) drainInbox() {
	for src := range s.inbox {
		evs := s.inbox[src]
		for i := range evs {
			s.eng.ScheduleArg(evs[i].at, evs[i].h, evs[i].arg)
			evs[i] = xev{} // release references
		}
		s.inbox[src] = evs[:0]
	}
	s.pendingMin = maxTime
}

// runWindow executes local events strictly below limit, then advances
// the local clock to advance. Stop is polled every 256 events so a
// cancelled run exits mid-window without waiting for the bound.
func (s *Shard) runWindow(limit, advance Time) {
	s.drainInbox()
	n := 0
	stopped := false
	for {
		at, ok := s.eng.qPeek()
		if !ok || at >= limit {
			break
		}
		s.eng.execTop()
		if n++; n&255 == 0 && s.parent.stopped.Load() {
			stopped = true
			break
		}
	}
	if !stopped {
		s.eng.AdvanceTo(advance)
	}
}

// work is the shard goroutine: one runWindow per command, one done
// token per window, until the coordinator closes the channel. The
// channels are parameters, not field reads: a later Run replaces the
// Shard's channels while this run's goroutine may still be draining
// the close, and the exiting goroutine must only see its own pair.
func (s *Shard) work(cmd <-chan windowCmd, done chan<- int) {
	for c := range cmd {
		s.runWindow(c.limit, c.advance)
		done <- s.idx
	}
}

// dispatchWindow runs one parallel window on every shard that has work
// below limit. Idle shards are skipped; their clocks stay behind,
// which is safe because nothing reads an idle shard's clock and all
// later injections carry timestamps at or beyond its last advance.
func (sh *Sharded) dispatchWindow(limit, advance Time) {
	sh.parallel = true
	n := 0
	for _, s := range sh.shards {
		if en, ok := s.effNext(); ok && en < limit {
			s.cmd <- windowCmd{limit: limit, advance: advance}
			n++
		}
	}
	for i := 0; i < n; i++ {
		<-sh.done
	}
	sh.parallel = false
}

// exchange moves every shard's outboxes into the destination inboxes.
// The common case swaps buffers (the destination drained its inbox at
// the start of its window, so both sides ping-pong between two
// allocations); when the destination shard was skipped this window,
// the outbox is appended to the still-pending inbox instead.
func (sh *Sharded) exchange(limit Time) {
	for _, src := range sh.shards {
		for dst := range src.outbox {
			out := src.outbox[dst]
			if len(out) == 0 {
				continue
			}
			if src.outMin[dst] < limit {
				panic(fmt.Sprintf("sim: cross-shard event at %v inside its own window (limit %v)", src.outMin[dst], limit))
			}
			d := sh.shards[dst]
			if len(d.inbox[src.idx]) == 0 {
				d.inbox[src.idx], src.outbox[dst] = out, d.inbox[src.idx][:0]
			} else {
				d.inbox[src.idx] = append(d.inbox[src.idx], out...)
				for i := range out {
					out[i] = xev{}
				}
				src.outbox[dst] = out[:0]
			}
			if src.outMin[dst] < d.pendingMin {
				d.pendingMin = src.outMin[dst]
			}
			src.outMin[dst] = maxTime
		}
	}
}

// flushDeferred replays the window's deferred calls in (time, shard,
// FIFO) order on the coordinator goroutine. The global clock is
// advanced to each call's capture time first, so deferred code that
// schedules relative work (After) measures delays from the moment it
// observed, exactly as it would have on the serial engine.
func (sh *Sharded) flushDeferred() {
	for {
		best := -1
		var bestAt Time
		for i, s := range sh.shards {
			if s.defHead < len(s.deferred) {
				if at := s.deferred[s.defHead].at; best < 0 || at < bestAt {
					best, bestAt = i, at
				}
			}
		}
		if best < 0 {
			break
		}
		s := sh.shards[best]
		fn := s.deferred[s.defHead].fn
		s.deferred[s.defHead].fn = nil
		s.defHead++
		sh.global.AdvanceTo(bestAt)
		fn()
	}
	for _, s := range sh.shards {
		s.deferred = s.deferred[:0]
		s.defHead = 0
	}
}

// Run executes events across the global engine and all shards until
// every queue is exhausted or past horizon, or Stop is called. The
// coordinator alternates serial global events with parallel shard
// windows: a window [ts, B) opens only when the earliest shard event
// ts precedes the earliest global event, and B never exceeds that
// global event, so serial code always observes every shard quiesced at
// or beyond its own timestamp. Events scheduled exactly at the horizon
// still run, matching Engine.Run.
func (sh *Sharded) Run(horizon Time) (Time, error) {
	sh.done = make(chan int, len(sh.shards))
	for _, s := range sh.shards {
		s.cmd = make(chan windowCmd, 1)
		go s.work(s.cmd, sh.done)
	}
	defer func() {
		for _, s := range sh.shards {
			close(s.cmd)
		}
	}()

	for {
		if sh.stopped.Load() {
			// Consumed like Engine.Run's, and likewise honoured when
			// Stop came before Run.
			sh.stopped.Store(false)
			return sh.global.now, ErrStopped
		}
		tg, okG := sh.global.NextAt()
		ts, okS := maxTime, false
		for _, s := range sh.shards {
			if en, ok := s.effNext(); ok && (!okS || en < ts) {
				ts, okS = en, true
			}
		}
		gReady := okG && tg <= horizon
		sReady := okS && ts <= horizon
		switch {
		case gReady && (!sReady || tg <= ts):
			// Global-first on ties: the serial event at tg may inject
			// work at tg into any shard, which must sort ahead of the
			// shard's own later arrivals.
			sh.global.execTop()
			if sh.global.stopped.Load() {
				sh.stopped.Store(true)
			}
		case sReady:
			limit := ts + sh.lookahead
			if okG && tg < limit {
				limit = tg
			}
			if limit > horizon {
				// One nanosecond past the horizon so events exactly at
				// the horizon execute inside the final window.
				limit = horizon + 1
			}
			advance := limit
			if advance > horizon {
				advance = horizon
			}
			sh.dispatchWindow(limit, advance)
			sh.exchange(limit)
			sh.flushDeferred()
		default:
			sh.global.AdvanceTo(horizon)
			for _, s := range sh.shards {
				s.eng.AdvanceTo(horizon)
			}
			return horizon, nil
		}
	}
}
