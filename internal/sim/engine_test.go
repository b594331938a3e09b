package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

// handlerFunc adapts a function to the Handler interface.
type handlerFunc func(Arg)

func (f handlerFunc) HandleSimEvent(arg Arg) { f(arg) }

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	e.Schedule(30*time.Millisecond, func() { got = append(got, e.Now()) })
	e.Schedule(10*time.Millisecond, func() { got = append(got, e.Now()) })
	e.Schedule(20*time.Millisecond, func() { got = append(got, e.Now()) })
	if _, err := e.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []Time{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineTieBreaksByScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5*time.Millisecond, func() { order = append(order, i) })
	}
	if _, err := e.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break order %v, want ascending schedule order", order)
		}
	}
}

func TestEngineAfterClampsNegativeDelay(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.After(-time.Second, func() { ran = true })
	if _, err := e.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !ran {
		t.Fatal("negative-delay event did not run")
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(time.Second, func() {})
	if _, err := e.Run(2 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(500*time.Millisecond, func() {})
}

func TestEngineHorizonStopsExecution(t *testing.T) {
	e := NewEngine(1)
	ran := make(map[string]bool)
	e.Schedule(time.Second, func() { ran["at"] = true })
	e.Schedule(time.Second+1, func() { ran["after"] = true })
	end, err := e.Run(time.Second)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if end != time.Second {
		t.Errorf("ended at %v, want horizon %v", end, time.Second)
	}
	if !ran["at"] {
		t.Error("event exactly at horizon should run")
	}
	if ran["after"] {
		t.Error("event past horizon must not run")
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 5; i++ {
		e.Schedule(Time(i)*time.Millisecond, func() {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	_, err := e.Run(time.Second)
	if err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if count != 2 {
		t.Errorf("ran %d events after stop, want 2", count)
	}
}

// TestEngineStopBeforeRun: a Stop that lands before Run starts (a
// cancelling goroutine winning the race) is not lost, and it is
// consumed, so the next Run continues where the first left off.
func TestEngineStopBeforeRun(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for i := 1; i <= 5; i++ {
		e.Schedule(Time(i)*time.Millisecond, func() { count++ })
	}
	e.Stop()
	if _, err := e.Run(time.Second); err != ErrStopped || count != 0 {
		t.Fatalf("Run after Stop = %v with %d events, want ErrStopped with 0", err, count)
	}
	if _, err := e.Run(time.Second); err != nil || count != 5 {
		t.Fatalf("second Run = %v with %d events, want nil with 5", err, count)
	}
}

// TestEngineStep advances the engine one event at a time through
// horizons that each admit one more event.
func TestEngineStep(t *testing.T) {
	e := NewEngine(1)
	if _, err := e.Run(0); err != nil || e.EventsRun() != 0 {
		t.Fatalf("Run on empty queue = %v after %d events", err, e.EventsRun())
	}
	ran := 0
	e.Schedule(time.Millisecond, func() { ran++ })
	e.Schedule(2*time.Millisecond, func() { ran++ })
	if now, _ := e.Run(time.Millisecond); ran != 1 || now != time.Millisecond {
		t.Fatalf("first step ran %d events, now %v", ran, now)
	}
	if now, _ := e.Run(2 * time.Millisecond); ran != 2 || now != 2*time.Millisecond {
		t.Fatalf("second step ran %d events, now %v", ran, now)
	}
}

func TestEngineEventsRunCounter(t *testing.T) {
	e := NewEngine(1)
	for i := 1; i <= 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	if _, err := e.Run(time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if e.EventsRun() != 7 {
		t.Errorf("EventsRun = %d, want 7", e.EventsRun())
	}
}

func TestEngineRunEmptyAdvancesToHorizon(t *testing.T) {
	e := NewEngine(1)
	end, err := e.Run(42 * time.Second)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if end != 42*time.Second {
		t.Errorf("end = %v, want horizon", end)
	}
}

func TestRNGStreamsAreDeterministicAndIndependent(t *testing.T) {
	a := NewEngine(7)
	b := NewEngine(7)
	// Same seed, same stream name → identical sequences.
	for i := 0; i < 100; i++ {
		if a.RNG("x").Int63() != b.RNG("x").Int63() {
			t.Fatal("same-seed streams diverged")
		}
	}
	// Creating a new stream must not perturb an existing one.
	c := NewEngine(7)
	first := make([]int64, 10)
	for i := range first {
		first[i] = c.RNG("x").Int63()
	}
	d := NewEngine(7)
	_ = d.RNG("y").Int63() // interleave another stream
	for i := range first {
		if got := d.RNG("x").Int63(); got != first[i] {
			t.Fatal("stream x perturbed by unrelated stream y")
		}
	}
}

func TestRNGDistinctNamesDistinctSequences(t *testing.T) {
	e := NewEngine(1)
	same := true
	for i := 0; i < 10; i++ {
		if e.RNG("a").Int63() != e.RNG("b").Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("streams a and b produced identical sequences")
	}
}

func TestEngineDeterministicReplay(t *testing.T) {
	run := func(seed int64) []Time {
		e := NewEngine(seed)
		rng := e.RNG("load")
		var times []Time
		var schedule func()
		schedule = func() {
			d := time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
			e.After(d, func() {
				times = append(times, e.Now())
				if len(times) < 50 {
					schedule()
				}
			})
		}
		schedule()
		if _, err := e.Run(time.Hour); err != nil {
			t.Fatalf("run: %v", err)
		}
		return times
	}
	a, b := run(3), run(3)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if c := run(4); len(c) == len(a) && c[len(c)-1] == a[len(a)-1] {
		t.Log("different seeds happened to coincide at the last event; acceptable but unusual")
	}
}

func TestExpDurationMeanAndPositivity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mean := 13300 * time.Millisecond
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		d := ExpDuration(rng, mean)
		if d < 0 {
			t.Fatal("negative exponential duration")
		}
		sum += d
	}
	got := float64(sum) / n
	if got < 0.95*float64(mean) || got > 1.05*float64(mean) {
		t.Errorf("sample mean %v deviates from %v", time.Duration(got), mean)
	}
	if ExpDuration(rng, 0) != 0 {
		t.Error("zero mean should give zero duration")
	}
}

// TestEngineTimestampsNondecreasing is a property test: under random
// scheduling patterns the executed timestamps never go backwards.
func TestEngineTimestampsNondecreasing(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine(1)
		var executed []Time
		for _, d := range delays {
			e.After(time.Duration(d)*time.Microsecond, func() {
				executed = append(executed, e.Now())
			})
		}
		if _, err := e.Run(time.Hour); err != nil {
			return false
		}
		if len(executed) != len(delays) {
			return false
		}
		return sort.SliceIsSorted(executed, func(i, j int) bool { return executed[i] < executed[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
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
