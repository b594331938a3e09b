package p2p

// bitset is a growable bitmap keyed by dense non-negative integers
// (node IDs). The topology builders probe peer membership once per
// dial attempt, and campaign-level rewiring (churn) probes it
// constantly — a bitset makes that O(1) with no hashing.
type bitset struct {
	words []uint64
}

func (b *bitset) set(i int) {
	w := i >> 6
	if w >= len(b.words) {
		grown := make([]uint64, w+1)
		copy(grown, b.words)
		b.words = grown
	}
	b.words[w] |= 1 << (uint(i) & 63)
}

func (b *bitset) clear(i int) {
	if w := i >> 6; w < len(b.words) {
		b.words[w] &^= 1 << (uint(i) & 63)
	}
}

func (b *bitset) has(i int) bool {
	w := i >> 6
	return w < len(b.words) && b.words[w]&(1<<(uint(i)&63)) != 0
}
