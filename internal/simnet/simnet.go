// Package simnet provides the simulated network substrate: nodes with
// a geographic region and bandwidth, and the one-way delay of a message
// between them, made of region-dependent latency, size-dependent
// transfer time and jitter. Protocol behaviour lives one layer up in
// internal/p2p.
//
// The network is only the wire model: Transmit counts a message and
// computes its one-way delay, and the protocol layer schedules the
// delivery as an event on the receiving node itself. Nothing here
// allocates per message.
//
// A message's delay is a pure function of the message (see Burst), so
// it does not depend on which other messages were sent, or in what
// order: a protocol may count a message and never compute its delay
// when no delay could change what the message does (see Floor).
package simnet

import (
	"fmt"
	"math"
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
	regions []geo.Region // by node ID: a node's region never changes

	key sim.Splitmix // the base every message's key is hashed under

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
		key:         *sim.NewSplitmix(engine.Seed(), "simnet", 0),
		MinOverhead: 200 * time.Microsecond,
	}
}

// AddNode registers a node in the given region with the given bandwidth
// (bytes/second). Bandwidth must be positive and finite.
func (n *Network) AddNode(region geo.Region, bandwidth float64) (*Node, error) {
	if !(bandwidth > 0) || math.IsInf(bandwidth, 1) { // NaN fails the comparison
		return nil, fmt.Errorf("simnet: bandwidth must be positive and finite, got %g", bandwidth)
	}
	if !region.Valid() {
		return nil, fmt.Errorf("simnet: invalid region %d", int(region))
	}
	id := types.NodeID(len(n.nodes))
	node := &Node{ID: id, Region: region, Bandwidth: bandwidth}
	n.nodes = append(n.nodes, node)
	n.regions = append(n.regions, region)
	return node, nil
}

// Nodes returns all nodes in creation order. The returned slice is
// shared; callers must not modify it.
func (n *Network) Nodes() []*Node { return n.nodes }

// NumNodes returns the number of registered nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// Sent returns the number of messages put on the wire so far, whether
// or not their deliveries were scheduled or their delays computed.
func (n *Network) Sent() uint64 { return n.sent }

// Local returns the network's protocol-layer value slot, where the
// protocol layer keeps state shared by all its nodes, such as free
// lists.
func (n *Network) Local() *any { return &n.local }

// Transmit puts one message of the given wire size, kind and object
// (see Burst) on the wire from one node to another, now: it counts the
// message and returns its one-way delay. The caller then schedules its
// delivery on the receiver, unless the protocol layer settles the
// delivery at send time: the receiver can no longer act on the message
// (a dead delivery), or the message's only effect can be applied at
// once because nothing reads it before it would land.
func (n *Network) Transmit(from, to *Node, size int, kind, object uint64) time.Duration {
	n.sent++
	b := n.Burst(from, size, kind, object)
	return b.Delay(to.ID)
}

// Count counts k messages put on the wire now whose delays the protocol
// layer never needs: it settles them whatever their delays are.
func (n *Network) Count(k int) { n.sent += uint64(k) }

// Floor returns a lower bound on the delay of every message between
// the nodes with the given IDs: their region pair's latency floor plus
// MinOverhead, since transmission time is never negative.
func (n *Network) Floor(from, to types.NodeID) time.Duration {
	return n.latency.SampleFloor(n.regions[from], n.regions[to]) + n.MinOverhead
}

// Burst computes the delays of the messages one node sends now that
// share a size, a kind and an object (a protocol-defined kind, and the
// hash of the block or transaction carried), such as a relay to every
// peer. A message's delay is propagation latency (region pair,
// jittered) + transmission time at the slower endpoint + MinOverhead,
// and a pure function of its key (seed, kind, object, sender, receiver,
// send time): the jitter is sampled from a stream seeded by a
// splitmix64 hash of the key. A Burst is a value, counts nothing and
// allocates nothing.
type Burst struct {
	net    *Network
	from   *Node
	prefix uint64 // the key words the burst's messages share, absorbed
	size   float64
}

// Odd multipliers that absorb the key words: each word's product is a
// bijection of the word, and the products of different words are
// combined, then hashed once per message by Delay's Fold.
const (
	objectMul = 0xC2B2AE3D27D4EB4F
	senderMul = 0x165667B19E3779F9
	timeMul   = 0xD6E8FEB86659FD93
	toMul     = 0x9E3779B97F4A7C15
)

// Burst opens a delay cursor for messages of the given size, kind and
// object sent now from one node.
func (n *Network) Burst(from *Node, size int, kind, object uint64) Burst {
	sender := kind<<32 | uint64(uint32(from.ID))
	prefix := object*objectMul ^ sender*senderMul ^ uint64(n.engine.Now())*timeMul
	return Burst{net: n, from: from, prefix: prefix, size: float64(size)}
}

// maxTransfer caps a message's transmission time, in nanoseconds
// (about 146 years, past the horizon of any campaign): a bandwidth
// throttled to almost nothing would otherwise overflow the conversion
// to time.Duration into a negative delay. A message held at the cap is
// never delivered.
const maxTransfer = 1 << 62

// Delay returns the delay of the burst's message to the node with the
// given ID, reading its bandwidth from its Node: a scenario may change
// it during a run.
func (b *Burst) Delay(to types.NodeID) time.Duration {
	rng := b.net.key.Fold(b.prefix ^ uint64(to)*toMul)
	lat := b.net.latency.Sample(&rng, b.from.Region, b.net.regions[to])
	bw := min(b.from.Bandwidth, b.net.nodes[to].Bandwidth)
	transfer := b.size / bw * float64(time.Second)
	if !(transfer < maxTransfer) { // also 0 bytes over a bandwidth throttled to 0 (NaN)
		transfer = maxTransfer
	}
	return lat + time.Duration(transfer) + b.net.MinOverhead
}

// Engine returns the simulation engine the network runs on.
func (n *Network) Engine() *sim.Engine { return n.engine }
