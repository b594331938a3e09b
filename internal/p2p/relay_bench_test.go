package p2p

import (
	"math/rand"
	"testing"
	"time"

	"ethmeasure/internal/chain"
	"ethmeasure/internal/geo"
	"ethmeasure/internal/sim"
	"ethmeasure/internal/simnet"
	"ethmeasure/internal/types"
)

// BenchmarkTxFlood floods b.N transactions through a 1000-node random
// graph (out-degree 8, default geo latencies), submitted 100 ms apart
// from random origins so consecutive floods overlap. ns/op is the CPU
// cost of relaying one transaction to the whole network; events/tx is
// the number of engine events that costs.
func BenchmarkTxFlood(b *testing.B) {
	engine := sim.NewEngine(1)
	net := simnet.New(engine, geo.DefaultLatencyModel())
	reg := chain.NewRegistry(0, types.NewHashIssuer(1))
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(1))
	regions := geo.AllRegions()
	nodes := make([]*Node, 1000)
	for i := range nodes {
		ep, err := net.AddNode(regions[rng.Intn(len(regions))], 1e7)
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = NewNode(&cfg, net, ep, reg)
	}
	if err := BuildRandomTopology(rng, nodes, 8); err != nil {
		b.Fatal(err)
	}
	issuer := types.NewHashIssuer(2)
	for i := 0; i < b.N; i++ {
		origin := nodes[rng.Intn(len(nodes))]
		tx := &types.Transaction{Hash: issuer.Next(), Size: types.TxSize}
		engine.Schedule(time.Duration(i)*100*time.Millisecond, func() { origin.SubmitTx(tx) })
	}
	b.ReportAllocs()
	b.ResetTimer()
	if _, err := engine.Run(time.Duration(b.N)*100*time.Millisecond + time.Minute); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(engine.EventsRun()-uint64(b.N))/float64(b.N), "events/tx")
}
