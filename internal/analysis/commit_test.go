package analysis

import (
	"testing"
	"time"

	"ethmeasure/internal/types"
)

// buildConfirmedChain extends the fixture with a main chain long enough
// for confirmation analysis, with block i observed at blockTime(i).
func buildConfirmedChain(f *fixture, n int, txsInFirst []types.Hash) []*types.Block {
	parent := f.reg.Genesis()
	blocks := make([]*types.Block, 0, n)
	for i := 0; i < n; i++ {
		var txs []types.Hash
		if i == 0 {
			txs = txsInFirst
		}
		b := f.block(parent, 1, txs)
		parent = b
		at := time.Duration(i+1) * 10 * time.Second
		f.observe("EA", at, b, "block")
		f.observe("NA", at+time.Second, b, "block")
		blocks = append(blocks, b)
	}
	return blocks
}

func TestCommitTimesKnownDelays(t *testing.T) {
	f := newFixture(t)
	txHash := types.Hash(0xA1)
	blocks := buildConfirmedChain(f, 40, []types.Hash{txHash})
	_ = blocks
	// Tx observed at t=2s; including block observed at t=10s.
	f.observeTx("EA", 2*time.Second, txHash, 1, 0)
	f.observeTx("WE", 3*time.Second, txHash, 1, 0)

	res := f.collect("").Commit()
	if res.CommittedTxs != 1 {
		t.Fatalf("committed = %d", res.CommittedTxs)
	}
	if got := res.InclusionSec.MustQuantile(0.5); got != 8 {
		t.Errorf("inclusion = %fs, want 8", got)
	}
	// k-th confirmation block observed at (1+k)*10s → delay (1+k)*10-2.
	for _, k := range ConfirmationLevels {
		want := float64((1+k)*10 - 2)
		if got := res.ConfirmSec[k].MustQuantile(0.5); got != want {
			t.Errorf("%d-conf = %f, want %f", k, got, want)
		}
	}
	if res.Median12Sec != 128 {
		t.Errorf("median 12-conf = %f", res.Median12Sec)
	}
}

func TestCommitTimesCensorsUnconfirmed(t *testing.T) {
	f := newFixture(t)
	txHash := types.Hash(0xA2)
	// Chain of only 5 blocks: 3-conf exists, 12-conf does not.
	buildConfirmedChain(f, 5, []types.Hash{txHash})
	f.observeTx("EA", time.Second, txHash, 1, 0)
	res := f.collect("").Commit()
	if res.ConfirmSec[3].N() != 1 {
		t.Errorf("3-conf samples = %d", res.ConfirmSec[3].N())
	}
	if res.ConfirmSec[12].N() != 0 {
		t.Errorf("12-conf samples = %d, want censored", res.ConfirmSec[12].N())
	}
}

func TestCommitTimesIgnoresUncommitted(t *testing.T) {
	f := newFixture(t)
	buildConfirmedChain(f, 15, nil)
	f.observeTx("EA", time.Second, types.Hash(0xA3), 1, 0) // never included
	res := f.collect("").Commit()
	if res.CommittedTxs != 0 {
		t.Errorf("committed = %d, want 0", res.CommittedTxs)
	}
}

// TestCommitSeen: the commit lookup answers with the first sighting of
// the block k past a transaction's including block, and with false
// when the transaction is uncommitted, the chain is too short, or no
// vantage saw that block.
func TestCommitSeen(t *testing.T) {
	f := newFixture(t)
	tx, orphan := types.Hash(0xA4), types.Hash(0xA5)
	blocks := buildConfirmedChain(f, 5, []types.Hash{tx})
	f.block(blocks[len(blocks)-1], 1, nil) // main-chain head, never observed
	c := f.collect("")
	// Block i (from 0) was first seen at (i+1)*10 s.
	for _, k := range []int{0, 1, 4} {
		want := time.Duration(k+1) * 10 * time.Second
		if got, ok := c.commitSeen(tx, k); !ok || got != want {
			t.Errorf("commitSeen(tx, %d) = %v, %v; want %v", k, got, ok, want)
		}
	}
	for _, q := range []struct {
		h types.Hash
		k int
	}{{orphan, 0}, {tx, 5}, {tx, 6}} {
		if got, ok := c.commitSeen(q.h, q.k); ok {
			t.Errorf("commitSeen(%v, %d) = %v, want not found", q.h, q.k, got)
		}
	}
}

func TestTransactionOrderingDetection(t *testing.T) {
	f := newFixture(t)
	// Three txs from one sender; nonce 1 observed AFTER nonce 2
	// (out-of-order); a second sender is fully in order.
	h0, h1, h2 := types.Hash(0xB0), types.Hash(0xB1), types.Hash(0xB2)
	hx := types.Hash(0xB9)
	parent := f.reg.Genesis()
	incl := f.block(parent, 1, []types.Hash{h0, h1, h2, hx})
	f.observe("EA", 10*time.Second, incl, "block")
	parent = incl
	for i := 0; i < 14; i++ {
		b := f.block(parent, 1, nil)
		parent = b
		f.observe("EA", time.Duration(11+i)*10*time.Second, b, "block")
	}

	f.observeTx("EA", 1*time.Second, h0, 1, 0)
	f.observeTx("EA", 3*time.Second, h2, 1, 2) // nonce 2 first...
	f.observeTx("EA", 4*time.Second, h1, 1, 1) // ...then nonce 1: OOO
	f.observeTx("EA", 2*time.Second, hx, 2, 0)

	res := f.collect("").Ordering()
	if res.CommittedTxs != 4 {
		t.Fatalf("committed = %d", res.CommittedTxs)
	}
	if res.OutOfOrderTxs != 1 {
		t.Fatalf("out-of-order = %d, want exactly 1 (nonce 1)", res.OutOfOrderTxs)
	}
	if res.OutOfOrderShare != 0.25 {
		t.Errorf("share = %f", res.OutOfOrderShare)
	}
	// Commit delay = 12-conf observation (13th block at t=130s... block
	// index 12 observed at (11+11)*10=220? verify via samples > 0).
	if res.InOrderSec.N() != 3 || res.OutOfOrderSec.N() != 1 {
		t.Errorf("sample counts %d/%d", res.InOrderSec.N(), res.OutOfOrderSec.N())
	}
	if res.OutOfOrderP50 <= 0 {
		t.Error("OOO commit delay must be positive")
	}
}

func TestTransactionOrderingRunningMax(t *testing.T) {
	f := newFixture(t)
	// Nonces observed at times: n0=10s, n1=2s, n2=5s. Both n1 and n2
	// precede n0's observation → both out-of-order.
	hashes := []types.Hash{0xC0, 0xC1, 0xC2}
	parent := f.reg.Genesis()
	incl := f.block(parent, 1, hashes)
	f.observe("EA", 20*time.Second, incl, "block")
	parent = incl
	for i := 0; i < 13; i++ {
		b := f.block(parent, 1, nil)
		parent = b
		f.observe("EA", time.Duration(3+i)*20*time.Second, b, "block")
	}
	f.observeTx("EA", 10*time.Second, hashes[0], 1, 0)
	f.observeTx("EA", 2*time.Second, hashes[1], 1, 1)
	f.observeTx("EA", 5*time.Second, hashes[2], 1, 2)

	res := f.collect("").Ordering()
	if res.OutOfOrderTxs != 2 {
		t.Errorf("out-of-order = %d, want 2 (running max, not adjacent pairs)", res.OutOfOrderTxs)
	}
}

func TestTransactionOrderingUncommittedExcluded(t *testing.T) {
	f := newFixture(t)
	buildConfirmedChain(f, 15, nil)
	f.observeTx("EA", time.Second, types.Hash(0xD0), 1, 0)
	res := f.collect("").Ordering()
	if res.CommittedTxs != 0 {
		t.Errorf("committed = %d", res.CommittedTxs)
	}
	if res.OutOfOrderShare != 0 {
		t.Error("share should be 0 with no committed txs")
	}
}
