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
	d := net.TransferDelay(fast, slow, 1000)
	want := 10*time.Millisecond + time.Second + time.Millisecond
	if d != want {
		t.Errorf("delay = %v, want %v", d, want)
	}
	// Size scales transmission.
	if d2 := net.TransferDelay(fast, slow, 2000); d2 <= d {
		t.Error("larger message should take longer")
	}
	// Between two fast nodes transmission is negligible.
	fast2, _ := net.AddNode(geo.NorthAmerica, 1e6)
	if d3 := net.TransferDelay(fast, fast2, 100); d3 > 12*time.Millisecond {
		t.Errorf("fast-fast delay = %v", d3)
	}
}

func TestSendDeliversAtComputedTime(t *testing.T) {
	engine, net := newNet(t)
	a, _ := net.AddNode(geo.NorthAmerica, 1e9)
	b, _ := net.AddNode(geo.NorthAmerica, 1e9)
	var deliveredAt sim.Time
	net.Send(a, b, 100, sinkFunc(func(Envelope) { deliveredAt = engine.Now() }), Envelope{})
	if _, err := engine.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if deliveredAt <= 0 {
		t.Fatal("message not delivered")
	}
	if deliveredAt < 10*time.Millisecond {
		t.Errorf("delivered before latency elapsed: %v", deliveredAt)
	}
	if net.Delivered() != 1 {
		t.Errorf("delivered count = %d", net.Delivered())
	}
}

func TestSendOrderingPreserved(t *testing.T) {
	engine, net := newNet(t)
	a, _ := net.AddNode(geo.NorthAmerica, 1e9)
	b, _ := net.AddNode(geo.NorthAmerica, 1e9)
	var got []int
	record := sinkFunc(func(env Envelope) { got = append(got, int(env.Num)) })
	for i := 0; i < 5; i++ {
		net.Send(a, b, 10, record, Envelope{Num: uint64(i)})
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
