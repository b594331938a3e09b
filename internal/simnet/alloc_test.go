package simnet

import (
	"testing"
	"time"

	"ethmeasure/internal/geo"
	"ethmeasure/internal/sim"
)

// countingHandler is a receiver that records delivery events without
// allocating.
type countingHandler struct {
	delivered int
	lastKind  int32
	lastNum   uint64
}

func (h *countingHandler) HandleSimEvent(arg sim.Arg) {
	h.delivered++
	h.lastKind = arg.K
	h.lastNum = arg.U
}

// TestSendZeroAllocsPerDelivery pins the wire path's steady-state
// contract: a Transmit plus an AfterArg delivery event on the receiver
// allocates nothing once the engine slab is warm, and neither does a
// bare Transmit. This is the per-message budget that lets 5,000-node
// campaigns stream tens of millions of deliveries without GC pauses.
func TestSendZeroAllocsPerDelivery(t *testing.T) {
	engine := sim.NewEngine(1)
	net := New(engine, geo.DefaultLatencyModel())
	a, err := net.AddNode(geo.NorthAmerica, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.AddNode(geo.EasternAsia, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	recv := &countingHandler{}
	payload := &struct{ x int }{42}

	warm := func() {
		for i := 0; i < 32; i++ {
			d := net.Transmit(a, b, 100, 1, uint64(i))
			engine.AfterArg(d, recv, sim.Arg{A: payload, U: uint64(i), K: 1})
		}
		if _, err := engine.Run(engine.Now() + time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	// One round warms the slab; the loop also warms the ladder queue's
	// rungs and chunk pool across the bucket layouts the rounds hit as
	// virtual time advances.
	for i := 0; i < 320; i++ {
		warm()
	}

	if allocs := testing.AllocsPerRun(200, warm); allocs != 0 {
		t.Fatalf("steady-state delivery allocated %.1f times per 32-message batch, want 0", allocs)
	}
	if recv.delivered == 0 || recv.lastKind != 1 {
		t.Fatalf("receiver saw %d deliveries, last kind %d", recv.delivered, recv.lastKind)
	}
	if allocs := testing.AllocsPerRun(200, func() { net.Transmit(a, b, 100, 1, 1) }); allocs != 0 {
		t.Fatalf("Transmit allocated %.1f times per message, want 0", allocs)
	}
}
