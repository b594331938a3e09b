// Package discovery implements a Kademlia-style node discovery
// protocol modeled on devp2p's discv4: every node derives a random
// 64-bit identifier, distances are XOR metric, routing tables hold
// per-bucket nearest neighbours, and peers are selected by repeated
// lookups of random targets.
//
// This is the mechanism behind the paper's §III-B1 observation that
// "the Ethereum network establishes neighboring relationships among
// peers based on a random node identifier … independent of the
// geographic location": peer sets produced by these lookups are
// uniform over the ID space and therefore geography-blind. The
// campaign builder can use discovery-driven topologies instead of the
// plain random graph; both yield geography-independent neighbour
// choice, which tests assert.
package discovery

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"ethmeasure/internal/types"
)

// IDBits is the identifier width. devp2p uses 256-bit IDs; 64 bits
// give identical XOR-metric behaviour at simulation scale.
const IDBits = 64

// BucketSize is the per-bucket capacity (devp2p: k = 16).
const BucketSize = 16

// NodeID is a discovery identifier (distinct from the network NodeID:
// discovery IDs are random, network IDs are dense indices).
type ID uint64

// Distance is the XOR metric between two IDs.
func Distance(a, b ID) uint64 { return uint64(a ^ b) }

// LogDistance returns the index of the highest differing bit (the
// bucket index), or -1 for identical IDs.
func LogDistance(a, b ID) int {
	d := uint64(a ^ b)
	if d == 0 {
		return -1
	}
	return IDBits - 1 - bits.LeadingZeros64(d)
}

// Record is one table entry: a discovery ID bound to a network node.
type Record struct {
	ID   ID
	Node types.NodeID
}

// Table is one node's Kademlia routing table.
type Table struct {
	self     ID
	buckets  [IDBits][]Record
	size     int
	replaced uint64 // round-robin cursor for full-bucket replacement
}

// NewTable creates a routing table for the node with the given ID.
func NewTable(self ID) *Table {
	return &Table{self: self}
}

// Self returns the table owner's ID.
func (t *Table) Self() ID { return t.self }

// Len returns the number of records held.
func (t *Table) Len() int { return t.size }

// Add inserts a record into its bucket. Full buckets replace an entry
// round-robin, modeling devp2p's replacement lists: stale entries
// continuously give way to freshly seen nodes, so long-lived tables
// stay uniform over the live population instead of freezing on the
// earliest joiners. It reports whether the record was stored.
func (t *Table) Add(r Record) bool {
	idx := LogDistance(t.self, r.ID)
	if idx < 0 {
		return false // self
	}
	bucket := t.buckets[idx]
	for _, existing := range bucket {
		if existing.ID == r.ID {
			return false
		}
	}
	if len(bucket) >= BucketSize {
		t.replaced++
		bucket[int(t.replaced)%len(bucket)] = r
		return true
	}
	t.buckets[idx] = append(bucket, r)
	t.size++
	return true
}

// Closest returns up to n records closest to target in XOR distance.
func (t *Table) Closest(target ID, n int) []Record {
	var all []Record
	for i := range t.buckets {
		all = append(all, t.buckets[i]...)
	}
	sort.Slice(all, func(i, j int) bool {
		di, dj := Distance(all[i].ID, target), Distance(all[j].ID, target)
		if di != dj {
			return di < dj
		}
		return all[i].ID < all[j].ID
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// Network is the global discovery overlay: it knows every participant
// and resolves iterative lookups. The simulation performs lookups
// instantaneously (discovery traffic is negligible next to block and
// transaction gossip and does not affect any measured quantity).
type Network struct {
	rng     *rand.Rand
	records []Record
	byID    map[ID]types.NodeID
	tables  map[types.NodeID]*Table
}

// NewNetwork creates an empty overlay using the given RNG for ID
// assignment and lookup targets.
func NewNetwork(rng *rand.Rand) *Network {
	return &Network{
		rng:    rng,
		byID:   make(map[ID]types.NodeID),
		tables: make(map[types.NodeID]*Table),
	}
}

// Join assigns a fresh random ID to the network node and creates its
// routing table, bootstrapped from up to BucketSize random existing
// members (the hardcoded bootnodes of a real deployment).
func (n *Network) Join(node types.NodeID) (ID, error) {
	if _, dup := n.tables[node]; dup {
		return 0, fmt.Errorf("discovery: node %v already joined", node)
	}
	var id ID
	for {
		id = ID(n.rng.Uint64())
		if _, taken := n.byID[id]; !taken && id != 0 {
			break
		}
	}
	table := NewTable(id)
	rec := Record{ID: id, Node: node}
	// Bootstrap from random existing members. Contact is mutual: the
	// pinged bootstrap node learns about the joiner too, which is how
	// early joiners' tables keep growing as the network does.
	for _, i := range n.rng.Perm(len(n.records)) {
		if table.Len() >= BucketSize {
			break
		}
		table.Add(n.records[i])
		if peer := n.tables[n.records[i].Node]; peer != nil {
			peer.Add(rec)
		}
	}
	n.records = append(n.records, rec)
	n.byID[id] = node
	n.tables[node] = table
	return id, nil
}

// Lookup performs an iterative Kademlia lookup from the given node
// toward target: repeatedly query the closest known nodes for their
// closest records until no progress, filling the querier's table along
// the way. It returns the closest records found.
func (n *Network) Lookup(from types.NodeID, target ID, want int) []Record {
	table := n.tables[from]
	if table == nil {
		return nil
	}
	selfRec := Record{ID: table.Self(), Node: from}
	asked := make(map[ID]bool)
	for rounds := 0; rounds < 16; rounds++ {
		candidates := table.Closest(target, 3) // devp2p alpha = 3
		progressed := false
		for _, c := range candidates {
			if asked[c.ID] {
				continue
			}
			asked[c.ID] = true
			peerTable := n.tables[n.byID[c.ID]]
			if peerTable == nil {
				continue
			}
			// FINDNODE is mutual contact: the queried node records the
			// querier's endpoint.
			peerTable.Add(selfRec)
			for _, r := range peerTable.Closest(target, BucketSize) {
				if r.ID != table.Self() && table.Add(r) {
					progressed = true
				}
			}
		}
		if !progressed {
			break
		}
	}
	return table.Closest(target, want)
}

// DiscoverPeers runs lookups of random targets from the given node
// until it has collected at least want distinct peers (or the overlay
// is exhausted), returning them. This is how a devp2p node fills its
// dial candidates — and why peer sets are uniform over the ID space,
// independent of geography.
func (n *Network) DiscoverPeers(from types.NodeID, want int) []types.NodeID {
	seen := make(map[types.NodeID]bool, want)
	var peers []types.NodeID
	for attempts := 0; attempts < want*4+8 && len(peers) < want; attempts++ {
		target := ID(n.rng.Uint64())
		for _, r := range n.Lookup(from, target, 4) {
			if r.Node == from || seen[r.Node] {
				continue
			}
			seen[r.Node] = true
			peers = append(peers, r.Node)
			if len(peers) >= want {
				break
			}
		}
	}
	return peers
}
