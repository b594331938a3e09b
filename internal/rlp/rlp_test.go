package rlp

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"ethmeasure/internal/types"
)

// Known vectors from the Ethereum wiki RLP specification.
func TestEncodeKnownVectors(t *testing.T) {
	tests := []struct {
		name string
		item Item
		want []byte
	}{
		{"dog", String([]byte("dog")), []byte{0x83, 'd', 'o', 'g'}},
		{"cat-dog list", List(String([]byte("cat")), String([]byte("dog"))),
			[]byte{0xc8, 0x83, 'c', 'a', 't', 0x83, 'd', 'o', 'g'}},
		{"empty string", String(nil), []byte{0x80}},
		{"empty list", List(), []byte{0xc0}},
		{"zero", Uint(0), []byte{0x80}},
		{"fifteen", Uint(15), []byte{0x0f}},
		{"1024", Uint(1024), []byte{0x82, 0x04, 0x00}},
		{"single low byte", String([]byte{0x7f}), []byte{0x7f}},
		{"single high byte", String([]byte{0x80}), []byte{0x81, 0x80}},
		{"set of three", List(List(), List(List()), List(List(), List(List()))),
			[]byte{0xc7, 0xc0, 0xc1, 0xc0, 0xc3, 0xc0, 0xc1, 0xc0}},
	}
	for _, tt := range tests {
		got := Encode(tt.item)
		if !bytes.Equal(got, tt.want) {
			t.Errorf("%s: encode = %x, want %x", tt.name, got, tt.want)
		}
		if size := EncodedSize(tt.item); size != len(tt.want) {
			t.Errorf("%s: EncodedSize = %d, want %d", tt.name, size, len(tt.want))
		}
	}
}

func TestEncodeLongString(t *testing.T) {
	// "Lorem ipsum..." style 56-byte string gets a long-form header.
	s := bytes.Repeat([]byte{'a'}, 56)
	got := Encode(String(s))
	if got[0] != 0xb8 || got[1] != 56 {
		t.Errorf("long string header = %x %x", got[0], got[1])
	}
	if len(got) != 58 {
		t.Errorf("encoded length = %d", len(got))
	}
}

func TestEncodeLongList(t *testing.T) {
	items := make([]Item, 30)
	for i := range items {
		items[i] = String([]byte{0x41, 0x42})
	}
	got := Encode(Item{List: true, Items: items})
	// 30 × 3 bytes payload = 90 > 55 → long-form list header.
	if got[0] != 0xf8 || got[1] != 90 {
		t.Errorf("long list header = %x %x", got[0], got[1])
	}
}

// Property: EncodedSize always equals len(Encode).
func TestRLPRoundTripProperty(t *testing.T) {
	f := func(raw [][]byte, nest uint8) bool {
		var items []Item
		for _, b := range raw {
			items = append(items, String(b))
		}
		item := Item{List: true, Items: items}
		if nest%2 == 0 && len(items) > 0 {
			item = List(item, items[0])
		}
		return EncodedSize(item) == len(Encode(item))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestWireSizesRealistic(t *testing.T) {
	tx := &types.Transaction{Nonce: 42, GasPrice: 20}
	txSize := TxWireSize(tx)
	// A plain transfer is ~110 bytes on mainnet.
	if txSize < 90 || txSize > 140 {
		t.Errorf("tx wire size = %d, want ≈110", txSize)
	}

	b := &types.Block{Number: 7_500_000, TotalDiff: 123456, TxHashes: make([]types.Hash, 100)}
	blockSize := BlockWireSize(b, nil)
	// A 100-tx block was ~12-25 kB in the measurement period.
	if blockSize < 10_000 || blockSize > 30_000 {
		t.Errorf("block wire size = %d, want ≈12-25kB", blockSize)
	}
	empty := &types.Block{Number: 7_500_000, TotalDiff: 123456}
	emptySize := BlockWireSize(empty, nil)
	if emptySize < 500 || emptySize > 800 {
		t.Errorf("empty block wire size = %d, want ≈540-700", emptySize)
	}
	if emptySize >= blockSize {
		t.Error("empty block must be smaller than a full one")
	}

	annSize := AnnouncementWireSize(7_500_000)
	if annSize < 35 || annSize > 48 {
		t.Errorf("announcement wire size = %d, want ≈38-40", annSize)
	}
}

// TestAnnouncementWireSize pins the closed-form size to the encoded
// item at every byte-length boundary of the number.
func TestAnnouncementWireSize(t *testing.T) {
	numbers := []uint64{0, 1, 0x7f, 0x80}
	for n := 1; n <= 8; n++ {
		largest := uint64(math.MaxUint64) >> (64 - 8*n) // largest n-byte number
		numbers = append(numbers, largest)
		if n < 8 {
			numbers = append(numbers, largest+1)
		}
	}
	for _, n := range numbers {
		want := EncodedSize(List(hashItem(), Uint(n)))
		if got := AnnouncementWireSize(n); got != want {
			t.Errorf("AnnouncementWireSize(%#x) = %d, want %d", n, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { AnnouncementWireSize(7_500_000) }); allocs != 0 {
		t.Errorf("AnnouncementWireSize allocated %.0f times, want 0", allocs)
	}
}

func TestHeaderItemSize(t *testing.T) {
	b := &types.Block{Number: 7_500_000}
	size := EncodedSize(HeaderItem(b))
	// Mainnet headers are ~500-550 bytes.
	if size < 450 || size > 600 {
		t.Errorf("header size = %d, want ≈500-550", size)
	}
}

// Encode serializes an item: the reference encoder EncodedSize is
// checked against.
func Encode(item Item) []byte {
	var out []byte
	return appendItem(out, item)
}

func appendItem(out []byte, item Item) []byte {
	if !item.List {
		return appendString(out, item.Str)
	}
	var payload []byte
	for _, sub := range item.Items {
		payload = appendItem(payload, sub)
	}
	out = appendHeader(out, 0xc0, len(payload))
	return append(out, payload...)
}

func appendString(out, s []byte) []byte {
	if len(s) == 1 && s[0] < 0x80 {
		return append(out, s[0])
	}
	out = appendHeader(out, 0x80, len(s))
	return append(out, s...)
}

func appendHeader(out []byte, base byte, payloadLen int) []byte {
	if payloadLen <= 55 {
		return append(out, base+byte(payloadLen))
	}
	ll := lenOfLen(payloadLen)
	out = append(out, base+55+byte(ll))
	for shift := (ll - 1) * 8; shift >= 0; shift -= 8 {
		out = append(out, byte(payloadLen>>shift))
	}
	return out
}
