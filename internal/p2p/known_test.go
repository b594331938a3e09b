package p2p

import (
	"math/rand"
	"testing"

	"ethmeasure/internal/types"
)

// knownDriver drives one node's known-block table and a per-link FIFO
// reference (hashSet, the per-link cache model) for each of its links
// through the same operation stream, failing on the first answer they
// disagree on. Links are made and torn down through Connect,
// Disconnect and DisconnectAll, so slot handout and release run as in
// a campaign.
//
// Block ids are issued sequentially, and an operation only touches one
// of the newest window ids, window = (capacity+1)/2. Every touch of an
// id h then falls before h+window is issued, so no id sharing h's row
// is touched while h is live, and a link sees at most 2·window−2 other
// ids after h, fewer than the capacity a FIFO needs to evict h. That is
// the regime campaigns run in: a node looks a block up within seconds
// of first hearing of it, not after capacity newer blocks.
type knownDriver struct {
	t      *testing.T
	node   *Node
	peers  []*Node
	links  []knownLink
	dead   []*Edge // torn-down links a message may still arrive on
	window int
	first  types.Hash // first id issued
	next   types.Hash // next id to issue
}

type knownLink struct {
	e   *Edge
	ref *hashSet
}

func newKnownDriver(t *testing.T, capacity, peers int) *knownDriver {
	cfg := DefaultConfig()
	cfg.KnownBlocksPerPeer = capacity
	h := newHarness(t, 1+peers, cfg)
	first := types.Hash(uint64(1)<<48 + 1)
	return &knownDriver{
		t:      t,
		node:   h.nodes[0],
		peers:  h.nodes[1:],
		window: max((capacity+1)/2, 1),
		first:  first,
		next:   first,
	}
}

// id returns one of the newest window ids, or false before the first.
func (d *knownDriver) id(x byte) (types.Hash, bool) {
	live := min(int(d.next-d.first), d.window)
	if live == 0 {
		return 0, false
	}
	return d.next - 1 - types.Hash(int(x)%live), true
}

func (d *knownDriver) link(x byte) (knownLink, bool) {
	if len(d.links) == 0 {
		return knownLink{}, false
	}
	return d.links[int(x)%len(d.links)], true
}

// drop forgets every link whose edge is gone from the node.
func (d *knownDriver) drop(gone func(*Edge) bool) {
	kept := d.links[:0]
	for _, l := range d.links {
		if gone(l.e) {
			d.dead = append(d.dead, l.e)
		} else {
			kept = append(kept, l)
		}
	}
	d.links = kept
}

func (d *knownDriver) check(op string, h types.Hash, got, want bool) {
	if got != want {
		d.t.Fatalf("%s %v: table says %v, per-link FIFO %v", op, h, got, want)
	}
}

// step runs one operation read from op and arg.
func (d *knownDriver) step(op, arg byte) {
	n, k := d.node, &d.node.known
	switch op % 16 {
	case 0, 1: // a new block exists
		d.next++
	case 2, 3, 4: // connect (a no-op for an existing peer)
		p := d.peers[int(arg)%len(d.peers)]
		if n.edgeTo(p) == nil {
			ref := &hashSet{}
			ref.setCapacity(n.cfg.KnownBlocksPerPeer)
			d.links = append(d.links, knownLink{Connect(n, p), ref})
		}
	case 5: // the node drops every link (rare), or one link goes
		if arg == 0 {
			n.DisconnectAll()
			d.drop(func(*Edge) bool { return true })
		} else if l, ok := d.link(arg / 2); ok {
			if arg%2 == 1 {
				Disconnect(n, l.e.Other(n))
			} else {
				l.e.Other(n).DisconnectAll()
			}
			d.drop(func(e *Edge) bool { return e == l.e })
		}
	case 6, 7, 8: // a block arrives over, or is sent over, a link
		if l, ok := d.link(arg); ok {
			if h, ok := d.id(arg / 7); ok {
				k.mark(h, *l.e.slot(n))
				l.ref.Add(h)
			}
		}
	case 9: // a block arrives over a torn-down link
		if len(d.dead) > 0 {
			if h, ok := d.id(arg / 7); ok {
				k.mark(h, *d.dead[int(arg)%len(d.dead)].slot(n))
			}
		}
	case 10, 11: // pushBlock: one lookup, then a test per link
		if h, ok := d.id(arg); ok {
			r := k.find(h)
			for _, l := range d.links {
				d.check("push", h, k.has(r, *l.e.slot(n)), l.ref.Has(h))
			}
		}
	case 12, 13: // announceBlock: one claim, then test-and-set per link
		if h, ok := d.id(arg); ok {
			r := k.claim(h)
			for _, l := range d.links {
				slot := *l.e.slot(n)
				known := k.has(r, slot)
				if !known {
					k.set(r, slot)
				}
				d.check("announce", h, !known, l.ref.Add(h))
			}
		}
	default: // a single membership test
		if l, ok := d.link(arg); ok {
			if h, ok := d.id(arg / 7); ok {
				d.check("test", h, k.has(k.find(h), *l.e.slot(n)), l.ref.Has(h))
			}
		}
	}
	if inUse := int(k.nSlots) - len(k.free); inUse != len(d.links) {
		d.t.Fatalf("%d slots in use for %d links", inUse, len(d.links))
	}
}

// run executes the stream two bytes an operation, then sweeps every
// live id on every link.
func (d *knownDriver) run(ops []byte) {
	for i := 0; i+1 < len(ops); i += 2 {
		d.step(ops[i], ops[i+1])
	}
	for x := 0; x < d.window; x++ {
		h, ok := d.id(byte(x))
		if !ok {
			break
		}
		r := d.node.known.find(h)
		for _, l := range d.links {
			d.check("sweep", h, d.node.known.has(r, *l.e.slot(d.node)), l.ref.Has(h))
		}
	}
}

// TestKnownTableKeepsNewerBlock: a block never takes a row from a newer
// block with the same residue; the older block goes untracked, so every
// peer is a push and announce target for it, and the newer block keeps
// its marks.
func TestKnownTableKeepsNewerBlock(t *testing.T) {
	k := knownBlocks{capacity: 4}
	slot := k.acquire()
	newer := types.Hash(uint64(1)<<48 + 9)
	k.mark(newer, slot)
	older := newer - 4
	if r := k.claim(older); r != -1 {
		t.Fatalf("older block claimed row %d from a newer one", r)
	}
	k.mark(older, slot)
	if k.has(k.find(older), slot) {
		t.Error("older block tracked")
	}
	if !k.has(k.find(newer), slot) {
		t.Error("newer block lost its marks to an older one")
	}
	if r := k.claim(newer + 4); r < 0 || k.has(r, slot) {
		t.Errorf("newer block with the same residue: row %d, inherited marks %v", r, r >= 0 && k.has(r, slot))
	}
}

// TestKnownTableMatchesPerLinkFIFO: across capacities (including the
// clamped ≤ 0), peer counts past one mask word, link churn and
// messages on torn-down links, the node's table answers every push
// test, announce test-and-set and membership test as one FIFO cache
// per link would.
func TestKnownTableMatchesPerLinkFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 150; trial++ {
		capacity := rng.Intn(80) - 2
		if trial%10 == 0 {
			capacity = 256
		}
		peers := 1 + rng.Intn(140)
		ops := make([]byte, 4000)
		rng.Read(ops)
		newKnownDriver(t, capacity, peers).run(ops)
	}
}

// FuzzKnownBlocks runs the TestKnownTableMatchesPerLinkFIFO driver on
// fuzzer-chosen capacities, peer counts and operation streams.
func FuzzKnownBlocks(f *testing.F) {
	f.Add(uint16(4), uint8(3), []byte{2, 0, 2, 1, 0, 0, 6, 0, 12, 0, 10, 0, 0, 0, 12, 1, 4, 0, 12, 0})
	f.Add(uint16(1), uint8(2), []byte{0, 0, 2, 0, 2, 1, 6, 0, 0, 0, 12, 0, 14, 1, 5, 0, 2, 1, 12, 0})
	f.Add(uint16(256), uint8(139), []byte{2, 0, 2, 70, 2, 130, 0, 0, 8, 1, 12, 0, 5, 4, 2, 9, 12, 0, 10, 0})
	f.Fuzz(func(t *testing.T, capacity uint16, peers uint8, ops []byte) {
		if len(ops) > 1<<14 {
			ops = ops[:1<<14]
		}
		newKnownDriver(t, int(capacity%300), 1+int(peers)%140).run(ops)
	})
}
