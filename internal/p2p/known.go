package p2p

import (
	"ethmeasure/internal/sim"
	"ethmeasure/internal/types"
)

// knownBlocks is one node's record of which peers are known to have
// each of its recent blocks: Geth's per-peer known-block sets, kept as
// one table per node instead of one cache per link.
//
// Every link endpoint holds a small slot number (see link), the lowest
// free one when the link is made. A slot's generation is odd while a
// link holds it: acquire and release each bump it, so a handle of the
// link goes stale when the link is torn down. The table
// has capacity rows indexed by hash mod capacity; a row holds the hash
// it tracks and a bitmask over the node's slots. Block hashes are
// sequential ids from one issuer, so the node's last capacity blocks
// never share a row, and a block is forgotten only when a newer block
// with the same residue claims its row. Every lookup of a block falls
// within a few seconds of the node's first contact with it, long
// before capacity newer blocks exist, so the table answers as a
// per-link FIFO of the last capacity blocks would.
//
// A row also holds the node's schedule for its block: the times of the
// node's own push and announce of it, the only two reads of the row's
// mask. They are fixed when the node first receives the block (or
// publishes it), and settle uses them to decide a block delivery at
// send time.
//
// The rows live in one flat slice: row r is rows[r*(rowHead+stride)],
// the tracked hash plus one (0 marks an empty row, so hash 0 never
// matches it), the push and announce times plus one (0 while the
// schedule is unknown), then stride mask words. The stride grows when a
// slot passes 64·stride. Nothing is allocated until the node's first
// block, so a built network holds no tables.
type knownBlocks struct {
	capacity int32
	stride   int32    // mask words per row, once rows is allocated
	rows     []uint64 // nil until the first claim
	gens     []uint32 // by slot ever handed out: its generation
	next     int32    // no slot below it is free
}

// rowHead is the number of words before a row's mask: key, push time,
// announce time.
const rowHead = 3

// rowLen returns the words per row.
func (k *knownBlocks) rowLen() int { return rowHead + int(k.stride) }

// slotBit returns the word offset within a row and the mask of a slot.
func slotBit(slot int32) (int, uint64) { return rowHead + int(slot>>6), 1 << (slot & 63) }

// acquire hands out the lowest free slot for a new link.
func (k *knownBlocks) acquire() int32 {
	s := k.next
	for int(s) < len(k.gens) && k.gens[s]&1 == 1 {
		s++
	}
	if int(s) == len(k.gens) {
		k.gens = append(k.gens, 0)
		if k.rows != nil && s >= 64*k.stride {
			k.grow(s>>6 + 1)
		}
	}
	k.gens[s]++
	k.next = s + 1
	return s
}

// release frees a link's slot, clearing its bit in every row so a
// later link given the same slot starts with no knowledge, and bumping
// its generation so no handle of the link resolves any more.
func (k *knownBlocks) release(slot int32) {
	w, m := slotBit(slot)
	for r := w; r < len(k.rows); r += k.rowLen() {
		k.rows[r] &^= m
	}
	k.gens[slot]++
	k.next = min(k.next, slot)
}

// grow re-lays the rows with a wider stride.
func (k *knownBlocks) grow(stride int32) {
	old, n := k.rowLen(), rowHead+int(stride)
	rows := make([]uint64, int(k.capacity)*n)
	for r := 0; r < int(k.capacity); r++ {
		copy(rows[r*n:], k.rows[r*old:(r+1)*old])
	}
	k.rows, k.stride = rows, stride
}

// handle names the node's end of the link on slot, as an event's U
// word carries it: the slot in the low half, its generation in the
// high. Once the link is torn down the handle resolves to no slot, also
// after a new link takes the slot over.
func (k *knownBlocks) handle(slot int32) uint64 {
	if slot < 0 {
		return uint64(uint32(slot)) // no link: resolves to no slot
	}
	return uint64(k.gens[slot])<<32 | uint64(slot)
}

// resolve returns the slot of h's link while the link lives, else -1.
func (k *knownBlocks) resolve(h uint64) int32 {
	slot := int32(uint32(h))
	if slot < 0 || k.gens[slot] != uint32(h>>32) {
		return -1
	}
	return slot
}

// find returns the offset of h's row, or -1 if the table does not
// track h.
func (k *knownBlocks) find(h types.Hash) int {
	if k.rows == nil {
		return -1
	}
	r := int(uint64(h)%uint64(k.capacity)) * k.rowLen()
	if k.rows[r] != uint64(h)+1 {
		return -1
	}
	return r
}

// claim returns the offset of h's row, taking the row over from an
// older block with the same residue, with an unknown schedule and no
// slot marked. It returns -1, tracking nothing, when a newer block
// holds the row.
func (k *knownBlocks) claim(h types.Hash) int {
	if k.rows == nil {
		k.stride = max(int32(len(k.gens)+63)>>6, 1)
		k.rows = make([]uint64, int(k.capacity)*k.rowLen())
	}
	r := int(uint64(h)%uint64(k.capacity)) * k.rowLen()
	switch key := uint64(h) + 1; {
	case k.rows[r] == key:
	case k.rows[r] > key:
		return -1
	default:
		k.rows[r] = key
		clear(k.rows[r+1 : r+k.rowLen()])
	}
	return r
}

// has reports whether the row at offset r (from find or claim) marks
// slot.
func (k *knownBlocks) has(r int, slot int32) bool {
	if r < 0 {
		return false
	}
	w, m := slotBit(slot)
	return k.rows[r+w]&m != 0
}

// set marks slot in the row at offset r.
func (k *knownBlocks) set(r int, slot int32) {
	if r >= 0 {
		w, m := slotBit(slot)
		k.rows[r+w] |= m
	}
}

// mark records that the peer on slot has block h. A torn-down link's
// slot is -1 and marks nothing.
func (k *knownBlocks) mark(h types.Hash, slot int32) {
	if slot >= 0 {
		k.set(k.claim(h), slot)
	}
}

// schedule records, in h's row if the table tracks h, the times of the
// node's push and announce of h.
func (k *knownBlocks) schedule(h types.Hash, push, announce sim.Time) {
	if r := k.find(h); r >= 0 {
		k.rows[r+1], k.rows[r+2] = uint64(push)+1, uint64(announce)+1
	}
}

// settle decides, at send time now, a delivery of block h that would
// reach the node over slot at time at, and reports whether the
// delivery is settled and needs no event. Only an unobserved node may
// be asked. A known schedule means the node already has h, so the
// delivery would do nothing but mark slot, and only the node's own push
// and announce of h read the mark.
//
//   - The delivery lands at or after the announce time: it is dead,
//     nothing reads its mark any more.
//   - It lands before the next read still to come (the push, unless
//     that ran before now, else the announce): the mark is set now,
//     which no read can tell from setting it at `at`. A teardown of
//     the link or a newer block claiming the row before `at` clears it,
//     as either would have kept the delivery from marking.
//   - Otherwise (unknown schedule, or the push falls in between) the
//     delivery must run as an event.
//
// A push at exactly now counts as still to come: it may not have run
// yet.
func (k *knownBlocks) settle(h types.Hash, slot int32, now, at sim.Time) bool {
	r := k.find(h)
	if r < 0 || k.rows[r+2] == 0 {
		return false
	}
	push, announce := sim.Time(k.rows[r+1]-1), sim.Time(k.rows[r+2]-1)
	switch {
	case at >= announce:
		return true
	case push < now || at < push:
		if slot >= 0 {
			k.set(r, slot)
		}
		return true
	}
	return false
}
