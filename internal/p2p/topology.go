package p2p

import (
	"fmt"
	"math/rand"

	"ethmeasure/internal/discovery"
)

// BuildRandomTopology wires the given nodes into a random graph where
// each node dials outDegree random distinct partners, mirroring how
// Ethereum peers select neighbours from a Kademlia table keyed by
// random node IDs — i.e. independently of geography (paper §III-B1).
// The resulting mean degree is ~2·outDegree.
//
// It returns an error if the parameters cannot produce a connected
// dial pattern (fewer than two nodes, or outDegree out of range).
func BuildRandomTopology(rng *rand.Rand, nodes []*Node, outDegree int) error {
	if len(nodes) < 2 {
		return fmt.Errorf("p2p: topology needs at least 2 nodes, got %d", len(nodes))
	}
	if outDegree < 1 || outDegree >= len(nodes) {
		return fmt.Errorf("p2p: outDegree %d out of range [1,%d)", outDegree, len(nodes))
	}
	for i, node := range nodes {
		dialed := 0
		attempts := 0
		maxAttempts := outDegree * 20
		for dialed < outDegree && attempts < maxAttempts {
			attempts++
			j := rng.Intn(len(nodes))
			if j == i {
				continue
			}
			target := nodes[j]
			if node.edgeTo(target) != nil {
				continue
			}
			Connect(node, target)
			dialed++
		}
		if dialed == 0 {
			return fmt.Errorf("p2p: node %d failed to dial any peers", i)
		}
	}
	return nil
}

// ConnectToRandom connects node to up to k random distinct nodes from
// candidates (excluding itself and existing peers). Measurement nodes
// use this to reach their "more peers than default" configuration.
// It returns the number of new connections made.
func ConnectToRandom(rng *rand.Rand, node *Node, candidates []*Node, k int) int {
	idx := rng.Perm(len(candidates))
	made := 0
	for _, i := range idx {
		if made >= k {
			break
		}
		target := candidates[i]
		if target == node || node.edgeTo(target) != nil {
			continue
		}
		Connect(node, target)
		made++
	}
	return made
}

// BuildDiscoveryTopology wires nodes using a Kademlia-style discovery
// overlay, the mechanism real devp2p uses: every node joins the
// overlay under a random ID and dials outDegree peers found by random-
// target lookups. Like the plain random graph, the result is
// geography-blind (paper §III-B1), but neighbour sets now come from
// the actual ID-space machinery.
func BuildDiscoveryTopology(rng *rand.Rand, nodes []*Node, outDegree int) error {
	if len(nodes) < 2 {
		return fmt.Errorf("p2p: topology needs at least 2 nodes, got %d", len(nodes))
	}
	if outDegree < 1 || outDegree >= len(nodes) {
		return fmt.Errorf("p2p: outDegree %d out of range [1,%d)", outDegree, len(nodes))
	}
	overlay := discovery.NewNetwork(rng)
	byID := make(map[int32]*Node, len(nodes))
	for _, node := range nodes {
		if _, err := overlay.Join(node.ID()); err != nil {
			return fmt.Errorf("p2p: discovery join: %w", err)
		}
		byID[int32(node.ID())] = node
	}
	for _, node := range nodes {
		dialed := 0
		for _, peerID := range overlay.DiscoverPeers(node.ID(), outDegree*2) {
			if dialed >= outDegree {
				break
			}
			peer := byID[int32(peerID)]
			if peer == nil || peer == node || node.edgeTo(peer) != nil {
				continue
			}
			Connect(node, peer)
			dialed++
		}
		if dialed == 0 {
			return fmt.Errorf("p2p: node %v discovered no dialable peers", node.ID())
		}
	}
	return nil
}
