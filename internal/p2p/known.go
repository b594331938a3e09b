package p2p

import "ethmeasure/internal/types"

// knownBlocks is one node's record of which peers are known to have
// each of its recent blocks: Geth's per-peer known-block sets, kept as
// one table per node instead of one cache per link.
//
// Every link endpoint holds a small slot number (see Edge), handed out
// when the link is made and released when it is torn down. The table
// has capacity rows indexed by hash mod capacity; a row holds the hash
// it tracks and a bitmask over the node's slots. Block hashes are
// sequential ids from one issuer, so the node's last capacity blocks
// never share a row, and a block is forgotten only when a newer block
// with the same residue claims its row. Every lookup of a block falls
// within a few seconds of the node's first contact with it, long
// before capacity newer blocks exist, so the table answers as a
// per-link FIFO of the last capacity blocks would.
//
// The rows live in one flat slice: row r is rows[r*(1+stride)], the
// tracked hash plus one (0 marks an empty row, so hash 0 never matches
// it), followed by stride mask words. The stride grows when a slot
// passes 64·stride. Nothing is allocated until the node's first block,
// so a built network holds no tables.
type knownBlocks struct {
	capacity int
	stride   int      // mask words per row, once rows is allocated
	rows     []uint64 // nil until the first claim
	nSlots   int32    // slots handed out (high-water mark)
	free     []int32  // released slots, handed out again first
}

// slotBit returns the word offset within a row and the mask of a slot.
func slotBit(slot int32) (int, uint64) { return 1 + int(slot>>6), 1 << (slot & 63) }

// acquire hands out a slot for a new link.
func (k *knownBlocks) acquire() int32 {
	if n := len(k.free); n > 0 {
		s := k.free[n-1]
		k.free = k.free[:n-1]
		return s
	}
	s := k.nSlots
	k.nSlots++
	if k.rows != nil && int(s) >= 64*k.stride {
		k.grow(int(s>>6) + 1)
	}
	return s
}

// release frees a link's slot, clearing its bit in every row so a
// later link given the same slot starts with no knowledge.
func (k *knownBlocks) release(slot int32) {
	w, m := slotBit(slot)
	for r := w; r < len(k.rows); r += 1 + k.stride {
		k.rows[r] &^= m
	}
	k.free = append(k.free, slot)
}

// releaseAll frees every slot (the node dropped all its links).
func (k *knownBlocks) releaseAll() {
	for r := 0; r < len(k.rows); r += 1 + k.stride {
		clear(k.rows[r+1 : r+1+k.stride])
	}
	k.nSlots = 0
	k.free = k.free[:0]
}

// grow re-lays the rows with a wider stride.
func (k *knownBlocks) grow(stride int) {
	rows := make([]uint64, k.capacity*(1+stride))
	for r := 0; r < k.capacity; r++ {
		copy(rows[r*(1+stride):], k.rows[r*(1+k.stride):(r+1)*(1+k.stride)])
	}
	k.rows, k.stride = rows, stride
}

// find returns the offset of h's row, or -1 if the table does not
// track h.
func (k *knownBlocks) find(h types.Hash) int {
	if k.rows == nil {
		return -1
	}
	r := int(uint64(h)%uint64(k.capacity)) * (1 + k.stride)
	if k.rows[r] != uint64(h)+1 {
		return -1
	}
	return r
}

// claim returns the offset of h's row, taking the row over from an
// older block with the same residue. It returns -1, tracking nothing,
// when a newer block holds the row.
func (k *knownBlocks) claim(h types.Hash) int {
	if k.rows == nil {
		k.stride = max(int(k.nSlots+63)>>6, 1)
		k.rows = make([]uint64, k.capacity*(1+k.stride))
	}
	r := int(uint64(h)%uint64(k.capacity)) * (1 + k.stride)
	switch key := uint64(h) + 1; {
	case k.rows[r] == key:
	case k.rows[r] > key:
		return -1
	default:
		k.rows[r] = key
		clear(k.rows[r+1 : r+1+k.stride])
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
