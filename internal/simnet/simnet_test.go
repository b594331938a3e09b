package simnet

import (
	"testing"
	"time"

	"ethmeasure/internal/geo"
	"ethmeasure/internal/sim"
)

func newNet(t *testing.T) (*sim.Engine, *Network) {
	t.Helper()
	engine := sim.NewEngine(1)
	return engine, New(engine, geo.UniformLatencyModel(10*time.Millisecond, 0))
}

// handlerFunc adapts a function to sim.Handler.
type handlerFunc func(sim.Arg)

func (f handlerFunc) HandleSimEvent(arg sim.Arg) { f(arg) }

func TestAddNodeValidation(t *testing.T) {
	_, net := newNet(t)
	if _, err := net.AddNode(geo.NorthAmerica, 0); err == nil {
		t.Error("zero bandwidth must error")
	}
	if _, err := net.AddNode(geo.NorthAmerica, -5); err == nil {
		t.Error("negative bandwidth must error")
	}
	if _, err := net.AddNode(geo.Region(0), 1e6); err == nil {
		t.Error("invalid region must error")
	}
	n, err := net.AddNode(geo.EasternAsia, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if n.ID != 0 || n.Region != geo.EasternAsia {
		t.Errorf("node = %+v", n)
	}
	if net.NumNodes() != 1 || net.Node(0) != n {
		t.Error("node registry inconsistent")
	}
}

func TestTransferDelayComponents(t *testing.T) {
	_, net := newNet(t)
	net.MinOverhead = time.Millisecond
	fast, _ := net.AddNode(geo.NorthAmerica, 1e6) // 1 MB/s
	slow, _ := net.AddNode(geo.NorthAmerica, 1e3) // 1 kB/s

	// 1000 bytes at the slower endpoint's 1 kB/s = 1 s transmission.
	d := net.Transmit(fast, slow, 1000)
	want := 10*time.Millisecond + time.Second + time.Millisecond
	if d != want {
		t.Errorf("delay = %v, want %v", d, want)
	}
	// Size scales transmission.
	if d2 := net.Transmit(fast, slow, 2000); d2 <= d {
		t.Error("larger message should take longer")
	}
	// Between two fast nodes transmission is negligible.
	fast2, _ := net.AddNode(geo.NorthAmerica, 1e6)
	if d3 := net.Transmit(fast, fast2, 100); d3 > 12*time.Millisecond {
		t.Errorf("fast-fast delay = %v", d3)
	}
}

// TestTransmitDelayIsLatencyPlusTransferPlusOverhead checks every
// delay on a jittered geographic model against its three parts: the
// latency drawn from a replica of the sender's own stream, the transfer
// time at the slower endpoint, and MinOverhead. Transmit and a Burst
// draw identically, and Sent counts every message of both.
func TestTransmitDelayIsLatencyPlusTransferPlusOverhead(t *testing.T) {
	engine := sim.NewEngine(7)
	lat := geo.DefaultLatencyModel()
	net := New(engine, lat)
	regions := []geo.Region{geo.NorthAmerica, geo.EasternAsia, geo.WesternEurope}
	bws := []float64{1e6, 5e5, 2e7}
	var nodes []*Node
	for i, r := range regions {
		n, err := net.AddNode(r, bws[i])
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	streams := make([]*sim.Splitmix, len(nodes))
	for i, n := range nodes {
		streams[i] = sim.NewSplitmix(engine.Seed(), "simnet", uint64(n.ID))
	}
	want := func(from, to *Node, size int) time.Duration {
		bw := min(from.Bandwidth, to.Bandwidth)
		transfer := time.Duration(float64(size) / bw * float64(time.Second))
		return lat.Sample(streams[from.ID], from.Region, to.Region) + transfer + net.MinOverhead
	}
	sent := uint64(0)
	for round := 0; round < 50; round++ {
		size := 100 + 37*round
		for _, from := range nodes {
			for _, to := range nodes {
				if from == to {
					continue
				}
				if got, w := net.Transmit(from, to, size), want(from, to, size); got != w {
					t.Fatalf("Transmit %d→%d size %d = %v, want %v", from.ID, to.ID, size, got, w)
				}
				sent++
			}
			b := net.Burst(from, size)
			for _, to := range nodes {
				if from == to {
					continue
				}
				if got, w := b.Transmit(to), want(from, to, size); got != w {
					t.Fatalf("Burst %d→%d size %d = %v, want %v", from.ID, to.ID, size, got, w)
				}
				sent++
			}
			b.Done()
		}
	}
	if net.Sent() != sent {
		t.Fatalf("Sent = %d, want %d", net.Sent(), sent)
	}
}

func TestSendDeliversAtComputedTime(t *testing.T) {
	engine, net := newNet(t)
	a, _ := net.AddNode(geo.NorthAmerica, 1e9)
	b, _ := net.AddNode(geo.NorthAmerica, 1e9)
	var deliveredAt sim.Time
	d := net.Transmit(a, b, 100)
	engine.AfterArg(d, handlerFunc(func(sim.Arg) { deliveredAt = engine.Now() }), sim.Arg{})
	if _, err := engine.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if deliveredAt != d {
		t.Fatalf("delivered at %v, want the transmit delay %v", deliveredAt, d)
	}
	if deliveredAt < 10*time.Millisecond {
		t.Errorf("delivered before latency elapsed: %v", deliveredAt)
	}
	if net.Sent() != 1 {
		t.Errorf("sent count = %d", net.Sent())
	}
}

func TestSendOrderingPreserved(t *testing.T) {
	engine, net := newNet(t)
	a, _ := net.AddNode(geo.NorthAmerica, 1e9)
	b, _ := net.AddNode(geo.NorthAmerica, 1e9)
	var got []int
	record := handlerFunc(func(arg sim.Arg) { got = append(got, int(arg.U)) })
	for i := 0; i < 5; i++ {
		engine.AfterArg(net.Transmit(a, b, 10), record, sim.Arg{U: uint64(i)})
	}
	if _, err := engine.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	// Equal-size messages on a zero-jitter network deliver in order.
	if len(got) != 5 {
		t.Fatalf("delivered %d of 5 messages", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("delivery order %v", got)
		}
	}
}
