package txpool

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"ethmeasure/internal/types"
)

var nextHash types.Hash = 1

func tx(sender types.AccountID, nonce uint64, price uint64) *types.Transaction {
	nextHash++
	return &types.Transaction{
		Hash:     nextHash,
		Sender:   sender,
		Nonce:    nonce,
		GasPrice: price,
		Size:     types.TxSize,
	}
}

func TestAddRejectsDuplicate(t *testing.T) {
	p := New()
	a := tx(1, 0, 10)
	if !p.Add(a) {
		t.Fatal("fresh tx rejected")
	}
	if p.Add(a) {
		t.Error("duplicate accepted")
	}
	if got := p.PendingOf(1); len(got) != 1 || got[0] != a {
		t.Errorf("pending = %v", got)
	}
}

func TestAddRejectsStaleNonce(t *testing.T) {
	p := New()
	a := tx(1, 0, 10)
	p.Add(a)
	p.MarkIncluded([]*types.Transaction{a})
	if p.Add(tx(1, 0, 99)) {
		t.Error("stale nonce accepted after inclusion")
	}
	if !p.Add(tx(1, 1, 1)) {
		t.Error("next nonce rejected")
	}
}

func TestExecutableNonceOrderAndGap(t *testing.T) {
	p := New()
	t0 := tx(1, 0, 5)
	t2 := tx(1, 2, 50) // gap at nonce 1
	p.Add(t0)
	p.Add(t2)
	got := p.Executable(10, nil)
	if len(got) != 1 || got[0].Hash != t0.Hash {
		t.Fatalf("executable with gap = %v", got)
	}
	// Filling the gap unlocks the stalled tx.
	t1 := tx(1, 1, 1)
	p.Add(t1)
	got = p.Executable(10, nil)
	if len(got) != 3 {
		t.Fatalf("executable after fill = %d txs", len(got))
	}
	for i, want := range []uint64{0, 1, 2} {
		if got[i].Nonce != want {
			t.Errorf("position %d nonce %d, want %d (nonce order must override price)", i, got[i].Nonce, want)
		}
	}
}

func TestExecutablePriceOrderAcrossSenders(t *testing.T) {
	p := New()
	p.Add(tx(1, 0, 5))
	p.Add(tx(2, 0, 50))
	p.Add(tx(3, 0, 20))
	got := p.Executable(10, nil)
	if len(got) != 3 {
		t.Fatalf("executable = %d", len(got))
	}
	prices := []uint64{got[0].GasPrice, got[1].GasPrice, got[2].GasPrice}
	if prices[0] != 50 || prices[1] != 20 || prices[2] != 5 {
		t.Errorf("price order = %v", prices)
	}
}

func TestExecutableTimeTieBreak(t *testing.T) {
	p := New()
	older := tx(5, 0, 10)
	older.Created = 1 * time.Second
	newer := tx(2, 0, 10) // lower sender ID but later arrival
	newer.Created = 9 * time.Second
	p.Add(newer)
	p.Add(older)
	got := p.Executable(2, nil)
	if len(got) != 2 || got[0].Hash != older.Hash {
		t.Error("same-price txs must be ordered by arrival time")
	}
}

func TestExecutableRespectsMax(t *testing.T) {
	p := New()
	for i := 0; i < 10; i++ {
		p.Add(tx(types.AccountID(i+1), 0, uint64(i+1)))
	}
	if got := p.Executable(4, nil); len(got) != 4 {
		t.Errorf("max ignored: %d", len(got))
	}
	if got := p.Executable(0, nil); got != nil {
		t.Error("max 0 should return nil")
	}
	if got := p.Executable(-1, nil); got != nil {
		t.Error("negative max should return nil")
	}
}

func TestMarkIncludedAdvancesAndRemoves(t *testing.T) {
	p := New()
	a := tx(1, 0, 10)
	b := tx(1, 1, 10)
	p.Add(a)
	p.Add(b)
	p.MarkIncluded([]*types.Transaction{a})
	if p.NextNonce(1) != 1 {
		t.Errorf("next nonce = %d", p.NextNonce(1))
	}
	if got := p.PendingOf(1); len(got) != 1 || got[0] != b {
		t.Errorf("pending after inclusion = %v, want only the next nonce", got)
	}
	got := p.Executable(10, nil)
	if len(got) != 1 || got[0].Hash != b.Hash {
		t.Errorf("executable = %v", got)
	}
}

func TestUnmarkIncludedRestores(t *testing.T) {
	p := New()
	a := tx(1, 0, 10)
	b := tx(1, 1, 10)
	p.Add(a)
	p.Add(b)
	p.MarkIncluded([]*types.Transaction{a, b})
	if n := len(p.PendingOf(1)); n != 0 {
		t.Fatalf("pending after inclusion = %d", n)
	}
	// Reorg reverts the block containing b only.
	p.UnmarkIncluded([]*types.Transaction{b})
	if p.NextNonce(1) != 1 {
		t.Errorf("next nonce = %d, want rollback to 1", p.NextNonce(1))
	}
	got := p.Executable(10, nil)
	if len(got) != 1 || got[0].Hash != b.Hash {
		t.Errorf("executable after revert = %v", got)
	}
	// Unmarking something never included is a no-op.
	c := tx(2, 0, 1)
	p.UnmarkIncluded([]*types.Transaction{c})
	if len(p.PendingOf(2)) != 0 || p.NextNonce(2) != 0 {
		t.Error("unmark of unknown tx added it")
	}
}

func TestPendingOf(t *testing.T) {
	p := New()
	a := tx(1, 1, 10)
	b := tx(1, 0, 10)
	p.Add(a)
	p.Add(b)
	got := p.PendingOf(1)
	if len(got) != 2 || got[0].Nonce != 0 || got[1].Nonce != 1 {
		t.Errorf("PendingOf = %v", got)
	}
	if len(p.PendingOf(42)) != 0 {
		t.Error("unknown sender should have no pending")
	}
}

func TestExecutableDoesNotMutatePool(t *testing.T) {
	p := New()
	p.Add(tx(1, 0, 10))
	first := p.Executable(10, nil)
	second := p.Executable(10, nil)
	if len(first) != 1 || len(second) != 1 {
		t.Error("Executable must be a read-only selection")
	}
}

// Property: Executable never returns included txs (nonces below the
// watermark), never violates per-sender nonce contiguity, and never
// exceeds max.
func TestExecutableInvariantsProperty(t *testing.T) {
	f := func(ops []struct {
		Sender uint8
		Nonce  uint8
		Price  uint8
		Mark   bool
	}, max uint8) bool {
		p := New()
		var added []*types.Transaction
		for _, op := range ops {
			sender := types.AccountID(op.Sender%5 + 1)
			candidate := tx(sender, uint64(op.Nonce%8), uint64(op.Price))
			if p.Add(candidate) {
				added = append(added, candidate)
			}
			if op.Mark && len(added) > 0 {
				p.MarkIncluded(added[:1])
				added = added[1:]
			}
		}
		m := int(max%16) + 1
		out := p.Executable(m, nil)
		if len(out) > m {
			return false
		}
		next := make(map[types.AccountID]uint64)
		for s := types.AccountID(1); s <= 5; s++ {
			next[s] = p.NextNonce(s)
		}
		for _, got := range out {
			if got.Nonce != next[got.Sender] {
				return false // gap or disorder within sender
			}
			next[got.Sender]++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// A block lists a sender's nonces in ascending order; unmarking it in
// one call must restore every one of them, not stop after lowering the
// watermark to the first.
func TestUnmarkIncludedRestoresWholeBlock(t *testing.T) {
	p := New()
	var block []*types.Transaction
	for n := uint64(0); n < 6; n++ {
		block = append(block, tx(1, n, 10))
		p.Add(block[n])
	}
	p.MarkIncluded(p.Executable(10, nil))
	p.UnmarkIncluded(block)
	if p.NextNonce(1) != 0 {
		t.Errorf("next nonce = %d after unmarking the block, want 0", p.NextNonce(1))
	}
	got := p.PendingOf(1)
	if len(got) != len(block) {
		t.Fatalf("pending after unmark = %d txs, want %d", len(got), len(block))
	}
	for i := range got {
		if got[i] != block[i] {
			t.Errorf("pending[%d] has nonce %d, want %d", i, got[i].Nonce, block[i].Nonce)
		}
	}
}

// Inclusion is per-sender state: marking 10 000 transactions of 10
// senders included must not retain memory per transaction.
func TestMarkIncludedRetainsPerSenderStateOnly(t *testing.T) {
	const senders, perSender, blockSize = 10, 1000, 100
	txs := make([]*types.Transaction, 0, senders*perSender)
	for n := uint64(0); n < perSender; n++ {
		for s := types.AccountID(1); s <= senders; s++ {
			txs = append(txs, tx(s, n, 1))
		}
	}
	before := liveHeap()
	p := New()
	for i := 0; i < len(txs); i += blockSize {
		for _, tx := range txs[i : i+blockSize] {
			p.Add(tx)
		}
		if sel := p.Executable(blockSize, nil); len(sel) != blockSize {
			t.Fatalf("selected %d of %d executable txs", len(sel), blockSize)
		} else {
			p.MarkIncluded(sel)
		}
	}
	retained := liveHeap() - before
	runtime.KeepAlive(p)
	runtime.KeepAlive(txs)
	if retained > 32<<10 {
		t.Errorf("pool retains %d B after marking %d txs of %d senders, want < 32 KB", retained, len(txs), senders)
	}
}

func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// NextNonce returns the next includable nonce for a sender.
func (p *Pool) NextNonce(a types.AccountID) uint64 { return p.nextOnce[a] }

// PendingOf returns the pending transactions of one sender in nonce
// order.
func (p *Pool) PendingOf(a types.AccountID) []*types.Transaction {
	return slices.Clone(p.pending[a])
}
