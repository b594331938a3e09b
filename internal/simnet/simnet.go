// Package simnet provides the simulated network substrate: nodes with
// a geographic region and bandwidth, and the one-way delay of a message
// between them, made of region-dependent latency, size-dependent
// transfer time and jitter. Protocol behaviour lives one layer up in
// internal/p2p.
//
// The network is only the wire model: Transmit counts a message and
// draws its one-way delay, and the protocol layer schedules the
// delivery as an event on the receiving node itself. Nothing here
// allocates per message.
//
// Delay jitter draws from a per-sender RNG stream (derived from the
// master seed and the sender's node ID), never from a shared stream:
// a node's delays depend only on its own sends, not on how they
// interleave with other nodes'.
package simnet

import (
	"fmt"
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

// Network owns all nodes and draws the delays of messages between
// them.
type Network struct {
	engine  *sim.Engine
	latency *geo.LatencyModel
	nodes   []*Node

	// Per-sender jitter streams, parallel to nodes.
	senderRNG []*sim.Splitmix

	// local holds one protocol-layer value (Local).
	local any

	// MinOverhead is a fixed per-message processing cost added to every
	// delivery (kernel + serialization floor).
	MinOverhead time.Duration

	sent uint64
}

// New creates a network on the given engine with the given latency model.
func New(engine *sim.Engine, latency *geo.LatencyModel) *Network {
	return &Network{
		engine:      engine,
		latency:     latency,
		MinOverhead: 200 * time.Microsecond,
	}
}

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
	node := &Node{ID: id, Region: region, Bandwidth: bandwidth}
	n.nodes = append(n.nodes, node)
	n.senderRNG = append(n.senderRNG, sim.NewSplitmix(n.engine.Seed(), "simnet", uint64(id)))
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
// their deliveries were scheduled or settled at send time.
func (n *Network) Sent() uint64 { return n.sent }

// Local returns the network's protocol-layer value slot, where the
// protocol layer keeps state shared by all its nodes, such as free
// lists.
func (n *Network) Local() *any { return &n.local }

// Transmit puts one message of the given wire size on the wire from
// one node to another: it counts the message and draws its one-way
// delay, which is propagation latency (region pair, jittered, drawn
// from the sender's stream) + transmission time at the slower endpoint
// + fixed overhead. Every wire message is transmitted exactly once;
// the caller then schedules its delivery on the receiver, unless
// the protocol layer settles the delivery at send time: the receiver
// already has the payload and can no longer act on the message (a dead
// delivery), or the message's only effect can be applied at once
// because nothing reads it before it would land. A settled delivery is
// still counted here but schedules nothing. Transmit is the one-message
// case of a Burst.
func (n *Network) Transmit(from, to *Node, size int) time.Duration {
	n.sent++
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
	b.net.sent += b.sent
	b.sent = 0
}

// Engine returns the simulation engine the network runs on.
func (n *Network) Engine() *sim.Engine { return n.engine }

// Latency returns the latency model (read-only use).
func (n *Network) Latency() *geo.LatencyModel { return n.latency }
