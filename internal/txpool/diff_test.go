package txpool

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"ethmeasure/internal/chain"
	"ethmeasure/internal/types"
)

// chooser yields the differential harness's decisions: a seeded
// *rand.Rand in the random test, the fuzzer's bytes in FuzzTxPool.
type chooser interface{ Intn(n int) int }

type byteChooser struct{ data []byte }

func (c *byteChooser) Intn(n int) int {
	if len(c.data) == 0 {
		return 0
	}
	b := c.data[0]
	c.data = c.data[1:]
	return int(b) % n
}

// diffHarness drives a Pool and the reference pool through the same
// stream of arrivals and chain moves, the way a mining pool's txpool
// sees them: transactions arrive in any order, blocks form a tree, and
// the pools follow a head whose moves are reconciled with chain.Reorg.
// Every transaction has its own (sender, nonce), as txgen issues them.
// Blocks come from three builders:
//   - own: the pool's Executable selection on its head, which it adopts;
//   - sibling: the same selection on the head's parent, not adopted
//     (mineSibling's fresh selection, which can leave a nonce gap
//     relative to the block's own ancestry);
//   - foreign: another pool's block on any block of the tree, holding
//     consecutive nonces past that chain's highest, including
//     transactions this pool has not received yet.
type diffHarness struct {
	t       testing.TB
	pool    *Pool
	ref     *refPool
	reg     *chain.Registry
	issuer  *types.HashIssuer
	head    *types.Block
	blocks  []*types.Block
	txs     map[types.Hash]*types.Transaction
	issued  []uint64 // next nonce to issue, per sender index
	unsent  []*types.Transaction
	sent    []*types.Transaction
	clock   time.Duration
	senders int
}

func newDiffHarness(t testing.TB, senders int) *diffHarness {
	issuer := types.NewHashIssuer(3)
	reg := chain.NewRegistry(0, issuer)
	return &diffHarness{
		t:       t,
		pool:    New(),
		ref:     newRefPool(),
		reg:     reg,
		issuer:  issuer,
		head:    reg.Genesis(),
		blocks:  []*types.Block{reg.Genesis()},
		txs:     make(map[types.Hash]*types.Transaction),
		issued:  make([]uint64, senders),
		senders: senders,
	}
}

func (h *diffHarness) step(c chooser) {
	switch c.Intn(10) {
	case 0, 1, 2:
		h.issue(c)
	case 3, 4:
		if n := len(h.unsent); n > 0 {
			i := c.Intn(n)
			tx := h.unsent[i]
			h.unsent[i] = h.unsent[n-1]
			h.unsent = h.unsent[:n-1]
			h.sent = append(h.sent, tx)
			h.add(tx)
		}
	case 5:
		if len(h.sent) > 0 {
			h.add(h.sent[c.Intn(len(h.sent))]) // a repeat delivery
		}
	case 6:
		b := h.build(h.head, h.selection(c))
		h.moveTo(b)
	case 7:
		if h.head != h.reg.Genesis() {
			h.build(h.reg.MustGet(h.head.ParentHash), h.selection(c))
		}
	case 8:
		h.foreign(c, h.blocks[c.Intn(len(h.blocks))])
	case 9:
		h.moveTo(h.blocks[c.Intn(len(h.blocks))])
	}
	h.check()
}

func (h *diffHarness) issue(c chooser) {
	s := c.Intn(h.senders)
	h.clock += time.Millisecond
	h.unsent = append(h.unsent, &types.Transaction{
		Hash:     h.issuer.Next(),
		Sender:   types.AccountID(s + 1),
		Nonce:    h.issued[s],
		GasPrice: uint64(c.Intn(3) + 1),
		Created:  h.clock,
		Size:     types.TxSize,
	})
	h.issued[s]++
}

// add hands tx to both pools.
func (h *diffHarness) add(tx *types.Transaction) {
	if got, want := h.pool.Add(tx), h.ref.Add(tx); got != want {
		h.t.Fatalf("Add(sender %d nonce %d) = %v, reference %v", tx.Sender, tx.Nonce, got, want)
	}
}

func (h *diffHarness) selection(c chooser) []*types.Transaction {
	return h.pool.Executable(c.Intn(6)+1, nil)
}

func (h *diffHarness) build(parent *types.Block, txs []*types.Transaction) *types.Block {
	b := &types.Block{Hash: h.issuer.Next(), Number: parent.Number + 1, ParentHash: parent.Hash}
	for _, tx := range txs {
		b.TxHashes = append(b.TxHashes, tx.Hash)
		h.txs[tx.Hash] = tx
	}
	if err := h.reg.Add(b); err != nil {
		h.t.Fatal(err)
	}
	h.blocks = append(h.blocks, b)
	return b
}

// foreign builds another pool's block on parent: for a few senders, the
// issued nonces right after the highest one in parent's chain.
func (h *diffHarness) foreign(c chooser, parent *types.Block) {
	next := make([]uint64, h.senders)
	for b := parent; !b.ParentHash.IsZero(); b = h.reg.MustGet(b.ParentHash) {
		for _, tx := range h.resolve(b) {
			next[tx.Sender-1] = max(next[tx.Sender-1], tx.Nonce+1)
		}
	}
	var txs []*types.Transaction
	for s := range h.senders {
		for n := c.Intn(3); n > 0 && next[s] < h.issued[s]; n-- {
			txs = append(txs, h.find(types.AccountID(s+1), next[s]))
			next[s]++
		}
	}
	h.build(parent, txs)
}

func (h *diffHarness) find(sender types.AccountID, nonce uint64) *types.Transaction {
	for _, list := range [][]*types.Transaction{h.unsent, h.sent} {
		for _, tx := range list {
			if tx.Sender == sender && tx.Nonce == nonce {
				return tx
			}
		}
	}
	h.t.Fatalf("sender %d nonce %d was never issued", sender, nonce)
	return nil
}

func (h *diffHarness) resolve(b *types.Block) []*types.Transaction {
	out := make([]*types.Transaction, len(b.TxHashes))
	for i, hash := range b.TxHashes {
		out[i] = h.txs[hash]
	}
	return out
}

// moveTo reconciles both pools from the head to tip, as the miner's
// syncTxs does: abandoned blocks newest first, then adopted oldest
// first.
func (h *diffHarness) moveTo(tip *types.Block) {
	abandoned, adopted := chain.Reorg(h.reg, h.head, tip, len(h.blocks))
	for _, b := range abandoned {
		txs := h.resolve(b)
		h.pool.UnmarkIncluded(txs)
		h.ref.UnmarkIncluded(txs)
	}
	for _, b := range adopted {
		txs := h.resolve(b)
		h.pool.MarkIncluded(txs)
		h.ref.MarkIncluded(txs)
	}
	h.head = tip
}

func (h *diffHarness) check() {
	h.t.Helper()
	for s := 1; s <= h.senders; s++ {
		a := types.AccountID(s)
		if got, want := h.pool.NextNonce(a), h.ref.NextNonce(a); got != want {
			h.t.Fatalf("sender %d: watermark %d, reference %d", a, got, want)
		}
		if got, want := hashes(h.pool.PendingOf(a)), hashes(h.ref.PendingOf(a)); !slices.Equal(got, want) {
			h.t.Fatalf("sender %d: pending %v, reference %v", a, got, want)
		}
	}
	for _, n := range []int{1, 3, 1 << 10} {
		if got, want := hashes(h.pool.Executable(n, nil)), hashes(h.ref.Executable(n)); !slices.Equal(got, want) {
			h.t.Fatalf("Executable(%d) = %v, reference %v", n, got, want)
		}
	}
}

func hashes(txs []*types.Transaction) []types.Hash {
	out := make([]types.Hash, len(txs))
	for i, tx := range txs {
		out[i] = tx.Hash
	}
	return out
}

// TestPoolMatchesReference drives the watermark-only pool and the
// reference pool, which also records inclusion by hash, through random
// arrival and reorg streams; their pending lists, watermarks and
// selections must agree after every step.
func TestPoolMatchesReference(t *testing.T) {
	trials, steps := 200, 400
	if testing.Short() {
		trials = 40
	}
	for trial := range trials {
		rng := rand.New(rand.NewSource(int64(trial)))
		h := newDiffHarness(t, rng.Intn(6)+1)
		for range steps {
			h.step(rng)
		}
	}
}

// FuzzTxPool runs the differential harness on the fuzzer's bytes: the
// first picks the number of senders, the rest the operations.
func FuzzTxPool(f *testing.F) {
	f.Add([]byte{2, 0, 0, 1, 3, 3, 6, 7, 9, 0})
	f.Add([]byte{1, 0, 0, 0, 3, 3, 3, 6, 1, 7, 2, 9, 1, 6, 3, 9, 0, 9, 2})
	f.Add([]byte{3, 0, 1, 0, 2, 8, 0, 1, 1, 9, 1, 3, 4, 6, 5, 7, 3, 9, 2, 6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &byteChooser{data: data}
		h := newDiffHarness(t, c.Intn(6)+1)
		for len(c.data) > 0 {
			h.step(c)
		}
	})
}
