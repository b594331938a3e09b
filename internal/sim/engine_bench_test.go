package sim

import (
	"math/rand"
	"testing"
	"time"
)

// BenchmarkEngineScheduleRun measures raw event throughput: the whole
// simulation's cost scales with it (a default campaign executes ~45M
// events).
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(time.Microsecond, func() {})
		if i%1024 == 1023 {
			if _, err := e.Run(e.Now() + time.Second); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := e.Run(e.Now() + time.Second); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineSelfScheduling models the dominant pattern: events
// that schedule their successors (Poisson processes, relay chains).
func BenchmarkEngineSelfScheduling(b *testing.B) {
	e := NewEngine(1)
	remaining := b.N
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			e.After(time.Microsecond, tick)
		}
	}
	e.After(0, tick)
	b.ResetTimer()
	if _, err := e.Run(time.Duration(1<<62 - 1)); err != nil {
		b.Fatal(err)
	}
}

// churnTicker is the allocation-free handler behind the schedule-churn
// benchmarks: each fired event schedules a successor after an
// exponential hold plus a bimodal offset approximating the simulator's
// real key distribution (intra-region ~8ms vs inter-continental
// ~120ms deliveries).
type churnTicker struct {
	e         *Engine
	rng       *rand.Rand
	remaining int
}

func (c *churnTicker) HandleSimEvent(arg Arg) {
	if c.remaining <= 0 {
		return
	}
	c.remaining--
	hold := ExpDuration(c.rng, 25*time.Millisecond)
	if c.rng.Intn(2) == 0 {
		hold += 8 * time.Millisecond
	} else {
		hold += 120 * time.Millisecond
	}
	c.e.AfterArg(hold, c, arg)
}

// BenchmarkEngineScheduleChurn measures push/pop cost under a standing
// population of 4096 pending events — the regime where the binary
// heap paid O(log n) per operation and the ladder queue pays O(1).
func BenchmarkEngineScheduleChurn(b *testing.B) {
	e := NewEngine(1)
	tick := &churnTicker{e: e, rng: NewStream(1, "bench-churn", 0), remaining: b.N}
	for i := 0; i < 4096; i++ {
		e.AfterArg(time.Duration(i)*50*time.Microsecond, tick, Arg{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := e.Run(time.Duration(1<<62 - 1)); err != nil {
		b.Fatal(err)
	}
}

// fanoutPopulation is the standing pending population of
// BenchmarkEngineFanout, near relay-1000's time-averaged pending count.
const fanoutPopulation = 50_000

// fanoutHandler drives BenchmarkEngineFanout. A delivery (K == 0) fans
// out to 18 peers at geo latencies (8–300 ms) while fewer than
// fanoutPopulation events are pending, like a transaction relayed to a
// node that has not seen it; a timer (K == 1) re-arms itself 6 s out.
type fanoutHandler struct {
	e         *Engine
	rng       *rand.Rand
	remaining int
}

func (f *fanoutHandler) HandleSimEvent(arg Arg) {
	if arg.K == 1 {
		f.e.AfterArg(6*time.Second, f, arg)
		return
	}
	if f.remaining--; f.remaining <= 0 {
		f.e.Stop()
		return
	}
	if f.e.Pending() >= fanoutPopulation {
		return
	}
	for i := 0; i < 18; i++ {
		lat := 8*time.Millisecond + time.Duration(f.rng.Int63n(int64(292*time.Millisecond)))
		f.e.AfterArg(lat, f, arg)
	}
}

// BenchmarkEngineFanout measures push/pop cost in relay's shape: a far
// timer is the first event scheduled, then each delivery fans out 18
// more at geo latencies over a standing population of 50 000. One op
// is one delivery executed.
func BenchmarkEngineFanout(b *testing.B) {
	e := NewEngine(1)
	f := &fanoutHandler{e: e, rng: NewStream(1, "bench-fanout", 0), remaining: b.N}
	e.AfterArg(6*time.Second, f, Arg{K: 1})
	e.AfterArg(0, f, Arg{})
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := e.Run(time.Duration(1<<62 - 1)); err != ErrStopped {
		b.Fatalf("run ended with %v, want ErrStopped", err)
	}
}

func BenchmarkRNGStreamAccess(b *testing.B) {
	e := NewEngine(1)
	e.RNG("x") // pre-create
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.RNG("x").Int63()
	}
}
