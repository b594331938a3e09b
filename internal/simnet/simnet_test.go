package simnet

import (
	"math"
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
	if net.NumNodes() != 1 || net.Nodes()[0] != n {
		t.Error("node registry inconsistent")
	}
}

func TestTransferDelayComponents(t *testing.T) {
	_, net := newNet(t)
	net.MinOverhead = time.Millisecond
	fast, _ := net.AddNode(geo.NorthAmerica, 1e6) // 1 MB/s
	slow, _ := net.AddNode(geo.NorthAmerica, 1e3) // 1 kB/s

	// 1000 bytes at the slower endpoint's 1 kB/s = 1 s transmission.
	d := net.Transmit(fast, slow, 1000, 1, 1)
	want := 10*time.Millisecond + time.Second + time.Millisecond
	if d != want {
		t.Errorf("delay = %v, want %v", d, want)
	}
	// Size scales transmission.
	if d2 := net.Transmit(fast, slow, 2000, 1, 2); d2 <= d {
		t.Error("larger message should take longer")
	}
	// Between two fast nodes transmission is negligible.
	fast2, _ := net.AddNode(geo.NorthAmerica, 1e6)
	if d3 := net.Transmit(fast, fast2, 100, 1, 3); d3 > 12*time.Millisecond {
		t.Errorf("fast-fast delay = %v", d3)
	}
}

// delay returns the delay of one message, computed and not counted.
func delay(net *Network, from, to *Node, size int, kind, object uint64) time.Duration {
	b := net.Burst(from, size, kind, object)
	return b.Delay(to.ID)
}

// keyedNet is a jittered geographic network with one node per region,
// each on its own bandwidth.
func keyedNet(t *testing.T, seed int64) (*sim.Engine, *Network, []*Node) {
	t.Helper()
	engine := sim.NewEngine(seed)
	net := New(engine, geo.DefaultLatencyModel())
	var nodes []*Node
	for i, r := range geo.AllRegions() {
		n, err := net.AddNode(r, 5e5+float64(i)*3e6)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	return engine, net, nodes
}

// TestTransmitDelayIsLatencyPlusTransferPlusOverhead checks every
// delay on a jittered geographic model against its three parts: the
// latency sampled from the stream seeded by the message's key, the
// transfer time at the slower endpoint, and MinOverhead. Transmit and
// a Burst agree, and Sent counts every Transmit and Count message but
// no Burst delay.
func TestTransmitDelayIsLatencyPlusTransferPlusOverhead(t *testing.T) {
	engine, net, nodes := keyedNet(t, 7)
	lat := net.Latency()
	want := func(from, to *Node, size int, kind, object uint64) time.Duration {
		words := object*objectMul ^ (kind<<32|uint64(from.ID))*senderMul ^
			uint64(engine.Now())*timeMul ^ uint64(to.ID)*toMul
		rng := sim.NewSplitmix(engine.Seed(), "simnet", 0).Fold(words)
		bw := min(from.Bandwidth, to.Bandwidth)
		transfer := time.Duration(float64(size) / bw * float64(time.Second))
		return lat.Sample(&rng, from.Region, to.Region) + transfer + net.MinOverhead
	}
	sent := uint64(0)
	for round := 0; round < 50; round++ {
		size := 100 + 37*round
		for _, from := range nodes {
			for _, to := range nodes {
				if from == to {
					continue
				}
				kind, object := uint64(round%3), uint64(round*7+int(to.ID))
				w := want(from, to, size, kind, object)
				if got := delay(net, from, to, size, kind, object); got != w {
					t.Fatalf("Delay %d→%d size %d = %v, want %v", from.ID, to.ID, size, got, w)
				}
				if got := net.Transmit(from, to, size, kind, object); got != w {
					t.Fatalf("Transmit %d→%d size %d = %v, want %v", from.ID, to.ID, size, got, w)
				}
				sent++
			}
		}
		net.Count(round)
		sent += uint64(round)
		if _, err := engine.Run(engine.Now() + time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if net.Sent() != sent {
		t.Fatalf("Sent = %d, want %d", net.Sent(), sent)
	}
}

// TestDelayIsPure: a message's delay depends on its key alone — the
// same key gives the same delay whatever was computed before it, and
// changing any one of kind, object, sender, receiver or send time
// changes it.
func TestDelayIsPure(t *testing.T) {
	engine, net, nodes := keyedNet(t, 3)
	_, other, otherNodes := keyedNet(t, 3)
	a, b, c := nodes[0], nodes[1], nodes[2]
	const size = 500
	base := delay(net, a, b, size, 2, 99)
	// Another network on the same seed, after other draws, in the
	// reverse order.
	for i := range otherNodes {
		delay(other, otherNodes[len(otherNodes)-1-i], otherNodes[i], size, 1, uint64(i))
	}
	if got := delay(other, otherNodes[0], otherNodes[1], size, 2, 99); got != base {
		t.Fatalf("same key after other draws = %v, want %v", got, base)
	}
	if got := delay(net, a, b, size, 2, 99); got != base {
		t.Fatalf("same key again = %v, want %v", got, base)
	}
	for name, d := range map[string]time.Duration{
		"kind":     delay(net, a, b, size, 3, 99),
		"object":   delay(net, a, b, size, 2, 100),
		"sender":   delay(net, c, b, size, 2, 99),
		"receiver": delay(net, a, c, size, 2, 99),
	} {
		if d == base {
			t.Errorf("another %s gave the same delay %v", name, d)
		}
	}
	if _, err := engine.Run(time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if d := delay(net, a, b, size, 2, 99); d == base {
		t.Errorf("another send time gave the same delay %v", d)
	}
	if _, other2, n2 := keyedNet(t, 4); delay(other2, n2[0], n2[1], size, 2, 99) == base {
		t.Error("another seed gave the same delay")
	}
}

// TestKeyedDelaysMatchStreamLaw: keyed sampling keeps the latency
// model's jitter law. For every region pair, 200 000 keyed latencies
// (one key per message, as a flood's messages have) and 200 000
// latencies drawn in sequence from one stream have empirical CDFs
// within 0.01 of each other everywhere: every p-quantile of the keyed
// sample lies between the stream sample's (p-0.01)- and
// (p+0.01)-quantiles. 0.01 is 3.2 times the two-sample scale
// sqrt(2/200000), so the two-sample Kolmogorov-Smirnov test would
// reject a true match with probability below 1e-8 per pair.
func TestKeyedDelaysMatchStreamLaw(t *testing.T) {
	const draws = 200_000
	tol := 3.2 * math.Sqrt(2.0/draws)
	engine, net, nodes := keyedNet(t, 5)
	net.MinOverhead = 0
	lat := net.Latency()
	stream := sim.NewSplitmix(engine.Seed(), "stream-law", 0)
	// Latencies are counted in buckets of 1/4096 of the pair's floor:
	// far finer than the tolerance needs, and no sort.
	const width = 4096
	for _, from := range nodes {
		for _, to := range nodes {
			floor := float64(lat.SampleFloor(from.Region, to.Region))
			bucket := func(d time.Duration) int { return int(float64(d) / floor * width) }
			var keyed, seq []int
			count := func(h *[]int, b int) {
				for len(*h) <= b {
					*h = append(*h, 0)
				}
				(*h)[b]++
			}
			for i := 0; i < draws; i++ {
				count(&keyed, bucket(delay(net, from, to, 0, 0, uint64(i))))
				count(&seq, bucket(lat.Sample(stream, from.Region, to.Region)))
			}
			if dist := cdfDistance(keyed, seq, draws); dist > tol {
				t.Errorf("%v→%v: keyed and stream latencies' CDFs differ by %.4f (tolerance %.4f)", from.Region, to.Region, dist, tol)
			}
		}
	}
}

// cdfDistance returns the largest difference between the empirical
// CDFs of two bucketed samples of n draws each.
func cdfDistance(a, b []int, n int) float64 {
	ca, cb, worst := 0, 0, 0
	for i := 0; i < max(len(a), len(b)); i++ {
		if i < len(a) {
			ca += a[i]
		}
		if i < len(b) {
			cb += b[i]
		}
		worst = max(worst, ca-cb, cb-ca)
	}
	return float64(worst) / float64(n)
}

// TestFloorIsALowerBound: no delay undercuts Floor, the bound a flood
// reads to skip a message's delay, for any region pair, size, key or
// send time.
func TestFloorIsALowerBound(t *testing.T) {
	engine, net, nodes := keyedNet(t, 11)
	for round := 0; round < 20; round++ {
		for _, from := range nodes {
			for _, to := range nodes {
				floor := net.Floor(from.ID, to.ID)
				if floor <= net.MinOverhead {
					t.Fatalf("Floor(%v,%v) = %v", from.Region, to.Region, floor)
				}
				for i := 0; i < 100; i++ {
					if d := delay(net, from, to, i*13, uint64(i%4), uint64(round*100+i)); d < floor {
						t.Fatalf("Delay(%v,%v) = %v below Floor %v", from.Region, to.Region, d, floor)
					}
				}
			}
		}
		if _, err := engine.Run(engine.Now() + 7*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSendDeliversAtComputedTime(t *testing.T) {
	engine, net := newNet(t)
	a, _ := net.AddNode(geo.NorthAmerica, 1e9)
	b, _ := net.AddNode(geo.NorthAmerica, 1e9)
	var deliveredAt sim.Time
	d := net.Transmit(a, b, 100, 1, 1)
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
		engine.AfterArg(net.Transmit(a, b, 10, 1, uint64(i)), record, sim.Arg{U: uint64(i)})
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
