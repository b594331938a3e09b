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
	if err := checkTopology(nodes, outDegree); err != nil {
		return err
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
			if _, ok := node.linkTo(target); ok {
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
		if _, ok := node.linkTo(target); ok || target == node {
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
	if err := checkTopology(nodes, outDegree); err != nil {
		return err
	}
	overlay := discovery.NewNetwork(rng)
	for _, node := range nodes {
		if _, err := overlay.Join(node.ID()); err != nil {
			return fmt.Errorf("p2p: discovery join: %w", err)
		}
	}
	for _, node := range nodes {
		dialed := 0
		for _, peerID := range overlay.DiscoverPeers(node.ID(), outDegree*2) {
			if dialed >= outDegree {
				break
			}
			peer := node.tab.nodes[peerID] // a joined node other than node
			if _, ok := node.linkTo(peer); ok {
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

// checkTopology rejects parameters that cannot produce a connected dial
// pattern: fewer than two nodes, or outDegree out of range.
func checkTopology(nodes []*Node, outDegree int) error {
	if len(nodes) < 2 {
		return fmt.Errorf("p2p: topology needs at least 2 nodes, got %d", len(nodes))
	}
	if outDegree < 1 || outDegree >= len(nodes) {
		return fmt.Errorf("p2p: outDegree %d out of range [1,%d)", outDegree, len(nodes))
	}
	return nil
}
