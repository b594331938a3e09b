// Package hashset provides a set of uint64 keys stored as a window
// bitmap: one bit per id over [base, base+64·len(words)). The
// simulator's hashes come from types.HashIssuer, which hands out
// sequential ids, so the members of every known-hash set crowd into a
// short span of the id space and a bitmap over that span answers
// membership with one shift and one mask.
//
// Memory contract: a set costs nothing until its first Add, then one
// bit per id of live span (between the smallest and largest member),
// with at most 2× headroom — not a per-entry cost. When a new key
// falls outside the window the set re-bases to the live span, sliding
// the bits in place when the array is big enough, so a FIFO cache over
// sequential ids slides forever without allocating. A key too far from
// the window to fit within the span limit (one 64-bit word per member,
// and never less than 4096 ids) goes to a small overflow map instead,
// so membership stays exact for any uint64; campaigns never fill it.
//
// The seen-block and pending-fetch sets of internal/p2p's nodes use
// this set.
package hashset

import "math/bits"

const (
	minWords     = 4  // smallest window, in 64-bit words
	minSpanWords = 64 // span below which a key never overflows, in words
	maxWordIndex = 1 << 58
)

// U64 is an unbounded set of uint64 keys. The zero value is an empty
// set ready to use.
type U64 struct {
	base  uint64   // id of bit 0 of words[0]; a multiple of 64
	words []uint64 // window bitmap
	n     int      // members stored in words
	far   map[uint64]struct{}
}

// inWindow returns k's bit offset from base and whether the window
// covers k.
func (s *U64) inWindow(k uint64) (uint64, bool) {
	i := k - s.base
	return i, i < uint64(len(s.words))<<6
}

// Add inserts k, reporting whether it was newly added.
func (s *U64) Add(k uint64) bool {
	i, ok := s.inWindow(k)
	if ok && s.words[i>>6]&(1<<(i&63)) != 0 || s.hasFar(k) {
		return false
	}
	if !ok {
		if !s.rebase(k) {
			if s.far == nil {
				s.far = make(map[uint64]struct{})
			}
			s.far[k] = struct{}{}
			return true
		}
		i = k - s.base
	}
	s.words[i>>6] |= 1 << (i & 63)
	s.n++
	return true
}

// Has reports whether k is in the set. A key parked in the overflow
// map stays there when a later re-base slides the window over it, so
// the map is consulted whenever the bit is clear.
func (s *U64) Has(k uint64) bool {
	if i, ok := s.inWindow(k); ok && s.words[i>>6]&(1<<(i&63)) != 0 {
		return true
	}
	return s.hasFar(k)
}

func (s *U64) hasFar(k uint64) bool {
	if len(s.far) == 0 {
		return false
	}
	_, ok := s.far[k]
	return ok
}

// Remove deletes k if present, reporting whether it was a member.
func (s *U64) Remove(k uint64) bool {
	if i, ok := s.inWindow(k); ok {
		if w, bit := &s.words[i>>6], uint64(1)<<(i&63); *w&bit != 0 {
			*w &^= bit
			s.n--
			return true
		}
	}
	if !s.hasFar(k) {
		return false
	}
	delete(s.far, k)
	return true
}

// rebase moves the window so it covers k and every bitmap member,
// reporting false (window untouched) when that span exceeds the limit.
func (s *U64) rebase(k uint64) bool {
	var first, last int  // member words in the current window
	lo, hi := k>>6, k>>6 // absolute word indices of the new span
	if s.n > 0 {
		first, last = 0, len(s.words)-1
		for s.words[first] == 0 {
			first++
		}
		for s.words[last] == 0 {
			last--
		}
		lo = min(lo, s.base>>6+uint64(first))
		hi = max(hi, s.base>>6+uint64(last))
	}
	span := hi - lo + 1
	if span > max(minSpanWords, uint64(s.n)+1) {
		return false
	}
	size := uint64(len(s.words))
	if size < 2*span {
		size = max(minWords, uint64(1)<<bits.Len64(2*span-1))
	}
	// Leave the headroom on the side k arrived from, so an ascending
	// (or descending) run of ids re-bases rarely.
	start := lo
	if k>>6 == lo && s.n > 0 {
		start = hi + 1 - min(hi+1, size)
	}
	start = min(start, maxWordIndex-size) // keep base+64·size within uint64

	words := s.words
	if size > uint64(cap(words)) {
		words = make([]uint64, size)
	}
	words = words[:size]
	if s.n > 0 {
		// copy is a memmove, so sliding within one array is safe.
		from := int(s.base>>6 + uint64(first) - start)
		to := from + copy(words[from:], s.words[first:last+1])
		clear(words[:from])
		clear(words[to:])
	}
	s.words, s.base = words, start<<6
	return true
}
