// Package rlp models Ethereum's Recursive Length Prefix encoding
// (Appendix B of the Yellow Paper), the serialization used by every
// devp2p message the paper's instrumented client logged. The simulator
// uses it to derive wire sizes of blocks, transactions and
// announcements from the exact length of their encodings
// (EncodedSize) rather than constants; the encoder itself is the
// tests' reference.
//
// Supported item types: byte strings and lists, with helpers for
// unsigned integers (big-endian, no leading zeros — canonical RLP).
package rlp

// Item is an RLP item: either a byte string (List == false) or a list
// of items (List == true).
type Item struct {
	List  bool
	Str   []byte
	Items []Item
}

// String creates a byte-string item.
func String(b []byte) Item { return Item{Str: b} }

// Uint creates the canonical integer encoding: big-endian bytes with
// no leading zeros; zero encodes as the empty string.
func Uint(v uint64) Item {
	if v == 0 {
		return Item{}
	}
	var buf [8]byte
	n := 0
	for shift := 56; shift >= 0; shift -= 8 {
		b := byte(v >> shift)
		if n == 0 && b == 0 {
			continue
		}
		buf[n] = b
		n++
	}
	return Item{Str: buf[:n]}
}

// List creates a list item.
func List(items ...Item) Item { return Item{List: true, Items: items} }

// EncodedSize returns the exact serialized length without allocating
// the full encoding.
func EncodedSize(item Item) int {
	if !item.List {
		n := len(item.Str)
		if n == 1 && item.Str[0] < 0x80 {
			return 1
		}
		return n + headerSize(n)
	}
	payload := 0
	for _, sub := range item.Items {
		payload += EncodedSize(sub)
	}
	return payload + headerSize(payload)
}

func headerSize(payloadLen int) int {
	if payloadLen <= 55 {
		return 1
	}
	return 1 + lenOfLen(payloadLen)
}

func lenOfLen(n int) int {
	size := 0
	for n > 0 {
		size++
		n >>= 8
	}
	return size
}
