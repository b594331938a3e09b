// Package sim implements a deterministic discrete-event simulation
// engine. All network, mining and measurement activity in this project
// runs on top of a single engine instance: components schedule
// callbacks at virtual times, and the engine executes them in
// timestamp order (ties broken by scheduling order) so that a run is
// fully reproducible from its configuration and seed.
//
// The scheduler is built for campaign scale (5,000+ nodes, tens of
// millions of events): events live in a slab indexed by a multi-rung
// ladder queue (O(1) amortized push/pop, with the heap every pop works
// on kept a few entries deep; see queue.go), freed slots are recycled
// through a free list, and the ScheduleArg path lets hot callers
// (message delivery, protocol timers) enqueue work without allocating
// a closure — zero steady-state allocations per event.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"
)

// Time is a virtual timestamp: the duration elapsed since the start of
// the simulation. The zero Time is the simulation epoch.
type Time = time.Duration

// Arg is the packed argument record of an allocation-free event. The
// interface fields are intended for pointer-shaped payloads (struct
// pointers, interfaces), which convert to `any` without allocating.
type Arg struct {
	A, B, C any
	U       uint64
	K       int32
}

// Handler executes allocation-free events scheduled with ScheduleArg.
// Implementations dispatch on Arg.K when they serve multiple event
// kinds.
type Handler interface {
	HandleSimEvent(arg Arg)
}

// event is one scheduled callback in the slab. Exactly one of fn and h
// is set: fn for the closure path, h (+arg) for the allocation-free
// path.
type event struct {
	at  Time
	seq uint64 // tie-break for deterministic ordering
	fn  func()
	h   Handler
	arg Arg
}

// ErrStopped is returned by Run when the engine was stopped explicitly
// before reaching the horizon.
var ErrStopped = errors.New("sim: engine stopped")

// Engine is a deterministic discrete-event scheduler. It is not safe
// for concurrent use: simulations are single-threaded by design so that
// identical seeds yield identical runs.
type Engine struct {
	now     Time
	slab    []event // event storage; slots recycled via free
	lq      ladder  // pending slot indices, popped in (at, seq) order
	free    []int32 // recycled slot indices (LIFO for cache locality)
	seq     uint64
	stopped atomic.Bool // atomic: Stop may be called from another goroutine
	ran     uint64
	seed    int64
	streams map[string]*rand.Rand
}

// NewEngine creates an engine whose named RNG streams derive from seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		seed:    seed,
		streams: make(map[string]*rand.Rand),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// EventsRun returns how many events have executed so far.
func (e *Engine) EventsRun() uint64 { return e.ran }

// Pending returns the number of events waiting in the queue. The
// ladder queue tracks its population in one counter, so this is O(1)
// and never forces a bucket refill.
func (e *Engine) Pending() int { return e.lq.size() }

// Seed returns the master seed the engine was created with.
func (e *Engine) Seed() int64 { return e.seed }

// RNG returns the named deterministic random stream, creating it on
// first use. Distinct names give independent streams, so adding a new
// consumer does not perturb the draws seen by existing ones.
func (e *Engine) RNG(name string) *rand.Rand {
	if r, ok := e.streams[name]; ok {
		return r
	}
	h := fnv64(name)
	r := rand.New(rand.NewSource(e.seed ^ int64(h)))
	e.streams[name] = r
	return r
}

func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// alloc claims a slab slot, reusing a freed one when available so
// churn-heavy campaigns do not grow the slab unboundedly.
func (e *Engine) alloc() int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		return idx
	}
	e.slab = append(e.slab, event{})
	return int32(len(e.slab) - 1)
}

// Schedule runs fn at the given absolute virtual time. Scheduling in
// the past (before Now) is an error and the event is dropped with a
// panic, since it indicates a logic bug in the caller.
func (e *Engine) Schedule(at Time, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	idx := e.alloc()
	ev := &e.slab[idx]
	ev.at, ev.seq, ev.fn = at, e.seq, fn
	e.lq.push(at, e.seq, idx)
}

// ScheduleArg runs h.HandleSimEvent(arg) at the given absolute virtual
// time. Unlike Schedule it captures no closure: once the slab is warm
// this path performs zero allocations per event, which is what lets
// 5,000-node campaigns run tens of millions of deliveries without GC
// pressure. Ordering semantics are identical to Schedule.
func (e *Engine) ScheduleArg(at Time, h Handler, arg Arg) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	e.seq++
	idx := e.alloc()
	ev := &e.slab[idx]
	ev.at, ev.seq, ev.h, ev.arg = at, e.seq, h, arg
	e.lq.push(at, e.seq, idx)
}

// ReserveSeq claims the tie-break sequence number the next scheduling
// call would take, without scheduling anything. A component that keeps
// its own pending work (a transaction flood's arrivals) reserves a seq
// where it would have scheduled an event, and later hands the
// (at, seq) pair to ScheduleReserved, so the work runs exactly where
// the event would have.
func (e *Engine) ReserveSeq() uint64 {
	e.seq++
	return e.seq
}

// ScheduleReserved runs h.HandleSimEvent(arg) at the given absolute
// virtual time, ordered among same-time events by seq, a number from
// ReserveSeq, instead of by when this call is made. Each reserved seq
// must be scheduled at most once; at must not precede Now.
func (e *Engine) ScheduleReserved(at Time, seq uint64, h Handler, arg Arg) {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", at, e.now))
	}
	idx := e.alloc()
	ev := &e.slab[idx]
	ev.at, ev.seq, ev.h, ev.arg = at, seq, h, arg
	e.lq.push(at, seq, idx)
}

// After runs fn after the given delay from the current time. Negative
// delays are clamped to zero.
func (e *Engine) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now+d, fn)
}

// AfterArg runs h.HandleSimEvent(arg) after the given delay from the
// current time. Negative delays are clamped to zero.
func (e *Engine) AfterArg(d time.Duration, h Handler, arg Arg) {
	if d < 0 {
		d = 0
	}
	e.ScheduleArg(e.now+d, h, arg)
}

// Stop halts the run loop after the currently executing event returns,
// or makes the next Run return before its first event. Unlike every
// other Engine method it is safe to call from another goroutine — the
// campaign server cancels in-flight jobs this way.
func (e *Engine) Stop() { e.stopped.Store(true) }

// execTop pops the earliest event, releases its slot for reuse and
// executes it. The slot is cleared and freed before the callback runs
// so that callbacks scheduling new events (the dominant pattern)
// immediately reuse hot slots.
func (e *Engine) execTop() {
	idx, _ := e.lq.pop()
	ev := &e.slab[idx]
	at, fn, h, arg := ev.at, ev.fn, ev.h, ev.arg
	ev.fn, ev.h, ev.arg = nil, nil, Arg{} // release references for GC
	e.free = append(e.free, idx)
	e.now = at
	e.ran++
	if fn != nil {
		fn()
	} else {
		h.HandleSimEvent(arg)
	}
}

// Run executes events in order until the queue drains, the virtual
// clock passes horizon, or Stop is called. Events scheduled exactly at
// the horizon still run. It returns the virtual time at which the run
// ended and ErrStopped if the engine was stopped explicitly. A Stop
// issued before Run starts is honoured too (a cancelling goroutine may
// win the race to the engine); returning ErrStopped consumes it, so a
// later Run continues.
func (e *Engine) Run(horizon Time) (Time, error) {
	for {
		if e.stopped.Load() {
			e.stopped.Store(false)
			return e.now, ErrStopped
		}
		at, ok := e.lq.peek()
		if !ok {
			break
		}
		if at > horizon {
			e.now = horizon
			return e.now, nil
		}
		e.execTop()
	}
	if e.now < horizon {
		e.now = horizon
	}
	return e.now, nil
}

// Step executes exactly one event, if any, and reports whether an
// event ran. Useful in tests that need fine-grained control.
func (e *Engine) Step() bool {
	if e.lq.size() == 0 {
		return false
	}
	e.execTop()
	return true
}

// slabSize reports the number of slots ever allocated (tests: slot
// reuse keeps this bounded by the high-water pending count, not the
// total event count).
func (e *Engine) slabSize() int { return len(e.slab) }

// Splitmix is a splitmix64 rand.Source64: one uint64 of state, no
// allocation beyond the source itself. Each (seed, domain, id) triple
// yields an independent stream, which is what lets per-node and
// per-sender RNGs exist by the tens of thousands without the map and
// hashing costs of Engine.RNG. NewStream wraps one in a *rand.Rand; a
// hot loop that only needs uniform floats holds the *Splitmix itself
// (NewSplitmix) and calls its Float64 directly, without a Source
// interface call per draw.
type Splitmix struct{ state uint64 }

// NewSplitmix returns the (domain, id) stream of the master seed: the
// source NewStream(seed, domain, id) draws from.
func NewSplitmix(seed int64, domain string, id uint64) *Splitmix {
	return &Splitmix{state: streamState(seed, domain, id)}
}

func streamState(seed int64, domain string, id uint64) uint64 {
	return uint64(seed) ^ fnv64(domain) ^ (id * 0x9E3779B97F4A7C15)
}

// Float64 returns a uniform float in [0, 1): exactly the value
// (*rand.Rand).Float64 returns from a Rand over this source.
func (s *Splitmix) Float64() float64 {
again:
	f := float64(s.Int63()) / (1 << 63)
	if f == 1 {
		goto again // as math/rand: resample the one value that rounds to 1
	}
	return f
}

func (s *Splitmix) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *Splitmix) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *Splitmix) Seed(seed int64) { s.state = uint64(seed) }

// NewStream returns a deterministic RNG for the (domain, id) pair
// derived from the master seed. Unlike Engine.RNG streams, these are
// independent of engine identity and draw order elsewhere, so a
// component's randomness does not depend on how its events interleave
// with anyone else's.
func NewStream(seed int64, domain string, id uint64) *rand.Rand {
	return rand.New(NewSplitmix(seed, domain, id))
}

// ExpDuration samples an exponentially distributed duration with the
// given mean using the supplied RNG. Used for Poisson processes (block
// arrivals, transaction arrivals).
func ExpDuration(rng *rand.Rand, mean time.Duration) time.Duration {
	if mean <= 0 {
		return 0
	}
	return time.Duration(rng.ExpFloat64() * float64(mean))
}
