// Package simnet provides the simulated network substrate: nodes with
// a geographic region and bandwidth, links between them, and message
// delivery with region-dependent latency, size-dependent transfer time
// and jitter. Protocol behaviour lives one layer up in internal/p2p.
//
// Delivery is allocation-free on the steady-state path: senders pass a
// reusable Envelope (a value, not a pointer) plus a Sink, the network
// packs both into the engine's closure-free event representation, and
// the envelope is reconstructed at receive time. Campaigns deliver
// tens of millions of messages, so this is the difference between a
// GC-bound and a CPU-bound run at 5,000 nodes.
//
// Delay jitter draws from a per-sender RNG stream (derived from the
// master seed and the sender's node ID), never from a shared stream:
// a node's delays are bit-identical no matter how concurrent sends
// interleave, which is what lets the sharded engine reproduce the
// serial engine's runs exactly.
package simnet

import (
	"fmt"
	"sync/atomic"
	"time"

	"ethmeasure/internal/geo"
	"ethmeasure/internal/sim"
	"ethmeasure/internal/types"
)

// Node is a network endpoint.
type Node struct {
	ID        types.NodeID
	Region    geo.Region
	Bandwidth float64 // bytes per second
}

// Network owns all nodes and delivers messages between them on the
// simulation engine (serial, or sharded when EnableSharding was
// called).
type Network struct {
	engine  *sim.Engine
	latency *geo.LatencyModel
	nodes   []*Node

	// Per-sender jitter streams, parallel to nodes.
	senderRNG []*sim.Splitmix

	// Sharded-mode routing state: the coordinator, each node's shard
	// (parallel to nodes), and the caller's region→shard assignment.
	sharded *sim.Sharded
	pick    func(geo.Region) int
	shardOf []int32

	// local holds one protocol-layer value per shard (ShardLocal).
	local []any

	// MinOverhead is a fixed per-message processing cost added to every
	// delivery (kernel + serialization floor).
	MinOverhead time.Duration

	sent atomic.Uint64

	// Warm-run spares: node structs and jitter streams harvested by
	// Reset, drawn again by AddNode so recycled networks rebuild their
	// endpoint tables without allocating.
	spareNodes []*Node
	spareRNG   []*sim.Splitmix
}

// New creates a network on the given engine with the given latency model.
func New(engine *sim.Engine, latency *geo.LatencyModel) *Network {
	return &Network{
		engine:      engine,
		latency:     latency,
		MinOverhead: 200 * time.Microsecond,
		local:       make([]any, 1),
	}
}

// Reset returns the network to the state New(engine, latency) would
// produce, harvesting the node structs and per-sender RNG streams of
// the finished run for reuse by subsequent AddNode calls. Every Node
// field is reassigned and every recycled stream re-seeded on reuse, so
// a warm network is bit-identical to a cold one. The caller must not
// touch the previous run's nodes after Reset.
func (n *Network) Reset(engine *sim.Engine, latency *geo.LatencyModel) {
	n.engine = engine
	n.latency = latency
	n.spareNodes = append(n.spareNodes, n.nodes...)
	n.nodes = n.nodes[:0]
	n.spareRNG = append(n.spareRNG, n.senderRNG...)
	n.senderRNG = n.senderRNG[:0]
	n.sharded = nil
	n.pick = nil
	n.shardOf = n.shardOf[:0]
	n.MinOverhead = 200 * time.Microsecond
	n.sent.Store(0)
}

// EnableSharding routes all traffic through the sharded coordinator:
// every node added afterwards is assigned to pick(region), same-shard
// deliveries stay on the shard's local heap, and cross-shard
// deliveries are exchanged at window barriers. Must be called before
// any node is added.
func (n *Network) EnableSharding(sharded *sim.Sharded, pick func(geo.Region) int) {
	if len(n.nodes) > 0 {
		panic("simnet: EnableSharding must be called before any AddNode")
	}
	n.sharded = sharded
	n.pick = pick
	if k := sharded.NumShards(); len(n.local) < k {
		n.local = append(n.local, make([]any, k-len(n.local))...)
	}
}

// Sharded returns the sharded coordinator, or nil in serial mode.
func (n *Network) Sharded() *sim.Sharded { return n.sharded }

// AddNode registers a node in the given region with the given bandwidth
// (bytes/second). Bandwidth must be positive.
func (n *Network) AddNode(region geo.Region, bandwidth float64) (*Node, error) {
	if bandwidth <= 0 {
		return nil, fmt.Errorf("simnet: bandwidth must be positive, got %f", bandwidth)
	}
	if !region.Valid() {
		return nil, fmt.Errorf("simnet: invalid region %d", int(region))
	}
	id := types.NodeID(len(n.nodes))
	var node *Node
	if k := len(n.spareNodes); k > 0 {
		node = n.spareNodes[k-1]
		n.spareNodes = n.spareNodes[:k-1]
		node.ID, node.Region, node.Bandwidth = id, region, bandwidth
	} else {
		node = &Node{ID: id, Region: region, Bandwidth: bandwidth}
	}
	n.nodes = append(n.nodes, node)
	var rng *sim.Splitmix
	if k := len(n.spareRNG); k > 0 {
		rng = n.spareRNG[k-1]
		n.spareRNG = n.spareRNG[:k-1]
		rng.Reseed(n.engine.Seed(), "simnet", uint64(id))
	} else {
		rng = sim.NewSplitmix(n.engine.Seed(), "simnet", uint64(id))
	}
	n.senderRNG = append(n.senderRNG, rng)
	if n.sharded != nil {
		shard := n.pick(region)
		if shard < 0 || shard >= n.sharded.NumShards() {
			return nil, fmt.Errorf("simnet: shard %d for region %s out of range", shard, region)
		}
		n.shardOf = append(n.shardOf, int32(shard))
	}
	return node, nil
}

// Node returns the node with the given ID.
func (n *Network) Node(id types.NodeID) *Node {
	return n.nodes[int(id)]
}

// Nodes returns all nodes in creation order. The returned slice is
// shared; callers must not modify it.
func (n *Network) Nodes() []*Node { return n.nodes }

// NumNodes returns the number of registered nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// Sent returns the number of messages transmitted so far, whether
// their deliveries were scheduled or dropped as dead.
func (n *Network) Sent() uint64 { return n.sent.Load() }

// SchedulerFor returns the scheduler that runs the given node's
// events: its shard in sharded mode, the serial engine otherwise.
// Protocol nodes schedule their timers here so local work stays on
// the local heap.
func (n *Network) SchedulerFor(node *Node) sim.Scheduler {
	if n.sharded == nil {
		return n.engine
	}
	return n.sharded.Shard(int(n.shardOf[node.ID]))
}

// ShardLocal returns a value slot private to the node's shard (one
// slot in serial mode), where the protocol layer keeps per-shard state
// such as free lists. Only code running on that shard's scheduler, or
// on the coordinator between windows, may use it, so it needs no lock.
// Slots survive Reset: a warm network keeps whatever its protocol layer
// left there, which must therefore hold no run state.
func (n *Network) ShardLocal(node *Node) *any {
	return &n.local[n.ShardOf(node)]
}

// ShardOf returns the shard index the node is assigned to (0 in
// serial mode).
func (n *Network) ShardOf(node *Node) int {
	if n.sharded == nil {
		return 0
	}
	return int(n.shardOf[node.ID])
}

// Transmit puts one message of the given wire size on the wire from
// one node to another: it counts the message and draws its one-way
// delay, which is propagation latency (region pair, jittered, drawn
// from the sender's stream) + transmission time at the slower endpoint
// + fixed overhead. Every wire message is transmitted exactly once;
// the caller then schedules its delivery with ScheduleDelivery, unless
// the protocol layer can prove the delivery dead (it would reach a
// receiver that already has the payload) and drops it. Transmit is the
// one-message case of a Burst.
func (n *Network) Transmit(from, to *Node, size int) time.Duration {
	n.sent.Add(1)
	return n.delay(n.senderRNG[from.ID], from, float64(size), to)
}

// delay draws the one-way delay of a message of the given size from a
// sender, with its jitter stream, to a receiver.
func (n *Network) delay(rng *sim.Splitmix, from *Node, size float64, to *Node) time.Duration {
	lat := n.latency.Sample(rng, from.Region, to.Region)
	bw := from.Bandwidth
	if to.Bandwidth < bw {
		bw = to.Bandwidth
	}
	transmit := time.Duration(size / bw * float64(time.Second))
	return lat + transmit + n.MinOverhead
}

// Burst is a transmit cursor for one sender putting a run of equal-size
// messages on the wire, such as a relay to every peer: the sender's
// jitter stream is looked up once, and the messages are counted once,
// by Done. Its delays are exactly those of the same sequence of
// Transmit calls. A Burst is a value; it allocates nothing.
type Burst struct {
	net  *Network
	rng  *sim.Splitmix
	from *Node
	size float64
	sent uint64
}

// Burst opens a transmit cursor for messages of the given wire size
// from one node.
func (n *Network) Burst(from *Node, size int) Burst {
	return Burst{net: n, rng: n.senderRNG[from.ID], from: from, size: float64(size)}
}

// Transmit puts the burst's next message on the wire to the given node
// and returns its one-way delay (see Network.Transmit).
func (b *Burst) Transmit(to *Node) time.Duration {
	b.sent++
	return b.net.delay(b.rng, b.from, b.size, to)
}

// Done adds the burst's messages to the network's sent count.
func (b *Burst) Done() {
	b.net.sent.Add(b.sent)
	b.sent = 0
}

// Envelope is the payload of one in-flight message. Kind discriminates
// the protocol message type (values are owned by the protocol layer);
// Data and Aux carry pointer-shaped payloads (block, transaction,
// link); Num carries a scalar (hash, height). Envelopes are passed by
// value: sending one does not allocate.
type Envelope struct {
	Kind int32
	Data any
	Aux  any
	Num  uint64
}

// Sink receives delivered envelopes. Protocol nodes implement it.
type Sink interface {
	DeliverEnvelope(env Envelope)
}

// Send transmits an envelope of the given wire size from one node to
// another and schedules its delivery: sink.DeliverEnvelope(env) runs
// at the receive time. The steady-state path performs zero
// allocations.
func (n *Network) Send(from, to *Node, size int, sink Sink, env Envelope) {
	n.ScheduleDelivery(from, to, n.Transmit(from, to, size), sink, env)
}

// ScheduleDelivery schedules sink.DeliverEnvelope(env) after delay d
// (a Transmit result) on the receiver's scheduler; in sharded mode a
// cross-shard delivery waits for the window barrier.
func (n *Network) ScheduleDelivery(from, to *Node, d time.Duration, sink Sink, env Envelope) {
	arg := sim.Arg{A: sink, B: env.Data, C: env.Aux, U: env.Num, K: env.Kind}
	if n.sharded == nil {
		n.engine.AfterArg(d, n, arg)
		return
	}
	n.sharded.Route(int(n.shardOf[from.ID]), int(n.shardOf[to.ID]), d, n, arg)
}

// HandleSimEvent is the engine-facing delivery trampoline: it hands
// the reassembled envelope to the sink. Not for direct use.
func (n *Network) HandleSimEvent(arg sim.Arg) {
	arg.A.(Sink).DeliverEnvelope(Envelope{Kind: arg.K, Data: arg.B, Aux: arg.C, Num: arg.U})
}

// Engine returns the simulation engine the network runs on.
func (n *Network) Engine() *sim.Engine { return n.engine }

// Latency returns the latency model (read-only use).
func (n *Network) Latency() *geo.LatencyModel { return n.latency }
