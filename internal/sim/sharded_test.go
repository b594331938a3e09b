package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// handlerFunc adapts a function to the Handler interface.
type handlerFunc func(Arg)

func (f handlerFunc) HandleSimEvent(arg Arg) { f(arg) }

// shardedTrace runs a fixed actor workload under the given shard
// count and returns the ordered trace of serial-phase observations.
// Actors ping each other round-robin with delays at or above the
// lookahead; every delivery defers a trace line, so the trace captures
// both event content and the barrier replay order.
func shardedTrace(t *testing.T, numShards int, actors int, horizon Time) []string {
	t.Helper()
	const lookahead = 5 * time.Millisecond

	global := NewEngine(99)
	s := NewSharded(global, numShards, lookahead)

	var trace []string
	shardOf := func(actor int) *Shard { return s.Shard(actor % numShards) }

	// Each actor owns a deterministic per-actor stream: delays must not
	// depend on shard placement, or the trace would legitimately differ.
	streams := make([]*rand.Rand, actors)
	for i := range streams {
		streams[i] = NewStream(99, "trace", uint64(i))
	}

	var send func(from, to int, hop int)
	deliver := handlerFunc(func(arg Arg) {
		from, to, hop := arg.A.(int), int(arg.K), int(arg.U)
		sh := shardOf(to)
		at := sh.Now()
		sh.Defer(func() {
			trace = append(trace, fmt.Sprintf("%d->%d hop=%d at=%d", from, to, hop, at))
		})
		send(to, (to+1)%actors, hop+1)
	})
	send = func(from, to int, hop int) {
		if hop > 40 {
			return
		}
		d := lookahead + time.Duration(streams[from].Int63n(int64(4*time.Millisecond)))
		src, dst := from%numShards, to%numShards
		s.Route(src, dst, d, deliver, Arg{A: from, U: uint64(hop), K: int32(to)})
	}

	// Seed the system from the serial phase via a global kick-off event.
	global.Schedule(0, func() {
		for i := 0; i < actors; i++ {
			send(i, (i+1)%actors, 0)
		}
	})
	// A few recurring global events interleave with windows.
	var tick func()
	tick = func() {
		trace = append(trace, fmt.Sprintf("tick at=%d", global.Now()))
		if global.Now()+50*time.Millisecond <= horizon {
			global.After(50*time.Millisecond, tick)
		}
	}
	global.Schedule(25*time.Millisecond, tick)

	end, err := s.Run(horizon)
	if err != nil {
		t.Fatal(err)
	}
	if end != horizon {
		t.Fatalf("Run returned %v, want %v", end, horizon)
	}
	if s.Now() != horizon {
		t.Fatalf("Now() = %v after Run, want %v", s.Now(), horizon)
	}
	return trace
}

// TestShardedTraceEquivalence: the same workload produces the same
// serial-phase trace at shard counts 1, 2, 3 and 4 — message order,
// deferral replay order, and timestamps all included.
func TestShardedTraceEquivalence(t *testing.T) {
	const actors, horizon = 12, Time(2 * time.Second)
	base := shardedTrace(t, 1, actors, horizon)
	if len(base) == 0 {
		t.Fatal("empty trace")
	}
	for _, n := range []int{2, 3, 4} {
		got := shardedTrace(t, n, actors, horizon)
		if len(got) != len(base) {
			t.Fatalf("shards=%d: trace length %d, want %d", n, len(got), len(base))
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("shards=%d: trace[%d] = %q, want %q", n, i, got[i], base[i])
			}
		}
	}
}

// TestShardedHorizonSemantics mirrors the serial engine's contract:
// events at the horizon run, events past it stay pending, and every
// clock lands exactly on the horizon.
func TestShardedHorizonSemantics(t *testing.T) {
	global := NewEngine(7)
	s := NewSharded(global, 2, time.Millisecond)

	var atHorizon, past bool
	s.Shard(0).Schedule(100*time.Millisecond, func() { atHorizon = true })
	s.Shard(1).Schedule(100*time.Millisecond+1, func() { past = true })
	global.Schedule(100*time.Millisecond, func() {})

	end, err := s.Run(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !atHorizon {
		t.Error("event at horizon did not run")
	}
	if past {
		t.Error("event past horizon ran")
	}
	if end != Time(100*time.Millisecond) {
		t.Errorf("end = %v", end)
	}
	for i := 0; i < s.NumShards(); i++ {
		if now := s.Shard(i).Now(); now != Time(100*time.Millisecond) {
			t.Errorf("shard %d clock = %v, want horizon", i, now)
		}
	}
	// The pending past-horizon event survives for a follow-up run.
	if _, err := s.Run(200 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !past {
		t.Error("pending event lost across runs")
	}
}

// TestShardedStopMidWindow: Stop called from inside a shard event
// halts the run with ErrStopped instead of completing the horizon.
func TestShardedStopMidWindow(t *testing.T) {
	global := NewEngine(3)
	s := NewSharded(global, 4, time.Millisecond)

	// A self-rescheduling chain on shard 2 trips the stop mid-window.
	var n int
	var step func()
	step = func() {
		n++
		if n == 500 {
			s.Stop()
			return
		}
		s.Shard(2).After(time.Microsecond, step)
	}
	s.Shard(2).Schedule(0, step)

	_, err := s.Run(time.Hour)
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if n < 500 {
		t.Fatalf("stopped after %d steps, want at least 500", n)
	}
}

// TestShardedStopBeforeRun mirrors TestEngineStopBeforeRun for the
// coordinator.
func TestShardedStopBeforeRun(t *testing.T) {
	s := NewSharded(NewEngine(3), 2, time.Millisecond)
	count := 0
	s.Shard(1).Schedule(time.Millisecond, func() { count++ })
	s.Stop()
	if _, err := s.Run(time.Second); !errors.Is(err, ErrStopped) || count != 0 {
		t.Fatalf("Run after Stop = %v with %d events, want ErrStopped with 0", err, count)
	}
	if _, err := s.Run(time.Second); err != nil || count != 1 {
		t.Fatalf("second Run = %v with %d events, want nil with 1", err, count)
	}
}

// TestShardedRejectsLookaheadViolation: a parallel-phase cross-shard
// send below the lookahead is a correctness bug and must panic rather
// than silently race.
func TestShardedRejectsLookaheadViolation(t *testing.T) {
	global := NewEngine(1)
	s := NewSharded(global, 2, 10*time.Millisecond)
	s.Shard(0).Schedule(time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("cross-shard send below lookahead did not panic")
			}
			s.Stop()
		}()
		s.Route(0, 1, time.Millisecond, handlerFunc(func(Arg) {}), Arg{})
	})
	if _, err := s.Run(time.Second); !errors.Is(err, ErrStopped) {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
}

// TestEngineNextAtAdvanceTo covers the two primitives the coordinator
// leans on.
func TestEngineNextAtAdvanceTo(t *testing.T) {
	e := NewEngine(1)
	if _, ok := e.NextAt(); ok {
		t.Error("NextAt on empty engine reported an event")
	}
	e.Schedule(10, func() {})
	if at, ok := e.NextAt(); !ok || at != 10 {
		t.Errorf("NextAt = %v,%v, want 10,true", at, ok)
	}
	e.AdvanceTo(5)
	if e.Now() != 5 {
		t.Errorf("Now = %v after AdvanceTo(5)", e.Now())
	}
	e.AdvanceTo(3) // behind now: no-op
	if e.Now() != 5 {
		t.Errorf("AdvanceTo moved the clock backwards to %v", e.Now())
	}
	defer func() {
		if recover() == nil {
			t.Error("AdvanceTo past a pending event did not panic")
		}
	}()
	e.AdvanceTo(11)
}

// TestNewStreamIndependence: streams are deterministic per
// (seed, domain, id) and distinct across ids and domains.
func TestNewStreamIndependence(t *testing.T) {
	a1 := NewStream(1, "p2p", 7).Uint64()
	a2 := NewStream(1, "p2p", 7).Uint64()
	if a1 != a2 {
		t.Error("same (seed,domain,id) diverged")
	}
	if b := NewStream(1, "p2p", 8).Uint64(); b == a1 {
		t.Error("adjacent ids collided on first draw")
	}
	if c := NewStream(1, "simnet", 7).Uint64(); c == a1 {
		t.Error("domains collided on first draw")
	}
	if d := NewStream(2, "p2p", 7).Uint64(); d == a1 {
		t.Error("seeds collided on first draw")
	}
}
