package p2p

import (
	"fmt"
	"math/rand"
	"slices"

	"ethmeasure/internal/discovery"
	"ethmeasure/internal/simnet"
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
	// rng.Perm's loop, into the table's buffer: the same permutation
	// from the same draws, without allocating one per call.
	idx := slices.Grow(node.tab.perm[:0], len(candidates))[:len(candidates)]
	for i := range idx {
		j := rng.Intn(i + 1)
		idx[i] = idx[j]
		idx[j] = i
	}
	node.tab.perm = idx
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

// PackLinks re-homes the link list and the slot generations of every
// node on net into exact-length slices carved from one backing array
// each, once the topology is built: grown by append, they would hold
// up to twice the memory their links need for the whole run. Each
// node's slices are capped at their length, so a later Connect copies
// that node's slice out rather than writing over its neighbour's. It
// also lets go of ConnectToRandom's buffer, which a build fills for
// every gateway and vantage and a run needs only under churn.
func PackLinks(net *simnet.Network) {
	tab, _ := (*net.Local()).(*table)
	if tab == nil {
		return
	}
	tab.perm = nil
	nl, ng := 0, 0
	for _, n := range tab.nodes {
		if n != nil {
			nl += len(n.links)
			ng += len(n.known.gens)
		}
	}
	links, gens := make([]link, nl), make([]uint32, ng)
	for _, n := range tab.nodes {
		if n == nil {
			continue
		}
		k := copy(links, n.links)
		n.links, links = links[:k:k], links[k:]
		k = copy(gens, n.known.gens)
		n.known.gens, gens = gens[:k:k], gens[k:]
	}
}
