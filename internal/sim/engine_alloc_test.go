package sim

import (
	"testing"
	"time"
)

// countingHandler is a closure-free event target for the Arg path.
type countingHandler struct {
	engine *Engine
	ran    int
	chain  int // remaining self-scheduled events when used as a chain
}

func (h *countingHandler) HandleSimEvent(arg Arg) {
	h.ran++
	if h.chain > 0 {
		h.chain--
		h.engine.AfterArg(time.Microsecond, h, arg)
	}
}

// TestScheduleArgZeroAllocsSteadyState pins the engine's zero
// steady-state allocation contract: once the slab is warm, scheduling
// and executing events through the Arg path allocates nothing.
func TestScheduleArgZeroAllocsSteadyState(t *testing.T) {
	e := NewEngine(1)
	h := &countingHandler{engine: e}
	// Warm the slab and the queue (its rung array, chunk pool and
	// bottom tier) over many rounds, so every bucket layout the
	// measured rounds can hit as virtual time advances has been seen.
	for r := 0; r < 400; r++ {
		for i := 0; i < 32; i++ {
			e.AfterArg(time.Duration(i)*time.Microsecond, h, Arg{K: int32(i)})
		}
		if _, err := e.Run(e.Now() + time.Second); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			e.AfterArg(time.Duration(i)*time.Microsecond, h, Arg{A: h, U: uint64(i), K: int32(i)})
		}
		if _, err := e.Run(e.Now() + time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Arg scheduling allocated %.1f times per run, want 0", allocs)
	}
}

// TestScheduleClosureZeroAllocsSteadyState pins the closure path with a
// prebuilt (non-capturing) callback: the engine itself must not
// allocate per event once warm.
func TestScheduleClosureZeroAllocsSteadyState(t *testing.T) {
	e := NewEngine(1)
	fn := func() {}
	// Warm the slab and the queue, as above.
	for r := 0; r < 400; r++ {
		for i := 0; i < 32; i++ {
			e.After(time.Duration(i)*time.Microsecond, fn)
		}
		if _, err := e.Run(e.Now() + time.Second); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			e.After(time.Duration(i)*time.Microsecond, fn)
		}
		if _, err := e.Run(e.Now() + time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state closure scheduling allocated %.1f times per run, want 0", allocs)
	}
}

// TestScheduleReusesFreedSlots is the churn-regression guard: a
// workload that schedules and drains events forever (the churn driver
// reschedules until horizon) must recycle slots instead of growing the
// slab with every event.
func TestScheduleReusesFreedSlots(t *testing.T) {
	e := NewEngine(1)
	h := &countingHandler{engine: e, chain: 100_000}
	e.AfterArg(0, h, Arg{})
	if _, err := e.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if h.ran != 100_001 {
		t.Fatalf("ran %d events, want 100001", h.ran)
	}
	if size := e.slabSize(); size > 16 {
		t.Errorf("slab grew to %d slots for a 1-pending workload, want a handful", size)
	}

	// Bursts of K pending events: slab stays O(K), not O(total).
	e2 := NewEngine(1)
	fn := func() {}
	for round := 0; round < 1000; round++ {
		for i := 0; i < 50; i++ {
			e2.After(time.Duration(i)*time.Microsecond, fn)
		}
		if _, err := e2.Run(e2.Now() + time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if size := e2.slabSize(); size > 128 {
		t.Errorf("slab grew to %d slots for a 50-pending workload, want ≤ 128", size)
	}
}

// TestArgAndClosureEventsShareOrdering verifies the two scheduling
// paths share one (at, seq) order: ties between them break by
// scheduling order regardless of path.
func TestArgAndClosureEventsShareOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	rec := &recordingHandler{order: &order}
	at := 5 * time.Millisecond
	e.Schedule(at, func() { order = append(order, 0) })
	e.ScheduleArg(at, rec, Arg{K: 1})
	e.Schedule(at, func() { order = append(order, 2) })
	e.ScheduleArg(at, rec, Arg{K: 3})
	if _, err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("mixed-path tie-break order %v, want ascending schedule order", order)
		}
	}
}

type recordingHandler struct {
	order *[]int
}

func (h *recordingHandler) HandleSimEvent(arg Arg) {
	*h.order = append(*h.order, int(arg.K))
}

// TestScheduleArgPastPanics mirrors the closure-path contract.
func TestScheduleArgPastPanics(t *testing.T) {
	e := NewEngine(1)
	h := &countingHandler{engine: e}
	e.ScheduleArg(time.Second, h, Arg{})
	if _, err := e.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.ScheduleArg(500*time.Millisecond, h, Arg{})
}
