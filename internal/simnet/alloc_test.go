package simnet

import (
	"testing"
	"time"

	"ethmeasure/internal/geo"
	"ethmeasure/internal/sim"
)

// countingSink records envelope deliveries without allocating.
type countingSink struct {
	delivered int
	lastKind  int32
	lastNum   uint64
}

func (s *countingSink) DeliverEnvelope(env Envelope) {
	s.delivered++
	s.lastKind = env.Kind
	s.lastNum = env.Num
}

// TestSendZeroAllocsPerDelivery pins the network's steady-state
// contract: scheduling and delivering envelopes allocates nothing once
// the engine slab is warm. This is the per-message budget that lets
// 5,000-node campaigns stream tens of millions of deliveries without
// GC pauses.
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
	sink := &countingSink{}
	payload := &struct{ x int }{42}

	warm := func() {
		for i := 0; i < 32; i++ {
			net.Send(a, b, 100, sink, Envelope{Kind: 1, Data: payload, Num: uint64(i)})
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

	allocs := testing.AllocsPerRun(200, warm)
	if allocs != 0 {
		t.Fatalf("steady-state delivery allocated %.1f times per 32-message batch, want 0", allocs)
	}
	if sink.delivered == 0 || sink.lastKind != 1 {
		t.Fatalf("sink saw %d deliveries, last kind %d", sink.delivered, sink.lastKind)
	}
}

// TestSendEnvelopeRoundTrip checks the envelope survives the packed
// event representation intact.
func TestSendEnvelopeRoundTrip(t *testing.T) {
	engine := sim.NewEngine(1)
	net := New(engine, geo.UniformLatencyModel(10*time.Millisecond, 0))
	a, _ := net.AddNode(geo.NorthAmerica, 1e9)
	b, _ := net.AddNode(geo.NorthAmerica, 1e9)
	type blob struct{ v int }
	data, aux := &blob{1}, &blob{2}
	var got Envelope
	sink := sinkFunc(func(env Envelope) { got = env })
	net.Send(a, b, 100, sink, Envelope{Kind: 7, Data: data, Aux: aux, Num: 99})
	if _, err := engine.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got.Kind != 7 || got.Data != data || got.Aux != aux || got.Num != 99 {
		t.Fatalf("envelope mangled in flight: %+v", got)
	}
	if net.Sent() != 1 {
		t.Fatalf("sent = %d, want 1", net.Sent())
	}
}

type sinkFunc func(Envelope)

func (f sinkFunc) DeliverEnvelope(env Envelope) { f(env) }
