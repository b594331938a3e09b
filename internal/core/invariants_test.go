package core

import (
	"context"
	"maps"
	"testing"
	"time"

	"ethmeasure/internal/types"
)

// TestCampaignInvariants runs a full campaign and asserts the
// protocol-level invariants the analyses depend on.
func TestCampaignInvariants(t *testing.T) {
	cfg := tinyConfig()
	cfg.Duration = 20 * time.Minute
	// Thirty senders at tinyConfig's 0.3 tx/s issue a transaction every
	// 100 s each, so blocks often carry several nonces of one sender,
	// and frequent siblings with fresh selections build on their
	// original's parent: the nonce invariants below need both.
	cfg.TxGen.NumAccounts = 30
	for i := range cfg.Pools {
		cfg.Pools[i].SiblingRate = 0.3
		cfg.Pools[i].SiblingSameTxFrac = 0
	}
	if testing.Short() {
		cfg.Duration = 10 * time.Minute
	}
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	records := &recordLog{} // the record invariants inspect each reception
	campaign.bus.Attach(records)
	res, err := campaign.RunContext(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reg := campaign.registry

	t.Run("chain structure", func(t *testing.T) {
		// Every block's parent exists and TotalDiff accumulates.
		reg.Blocks(func(b *types.Block) bool {
			if b.Hash == reg.Genesis().Hash {
				return true
			}
			parent, ok := reg.Get(b.ParentHash)
			if !ok {
				t.Fatalf("block %s has no parent", b.Hash)
			}
			if b.Number != parent.Number+1 {
				t.Fatalf("block %s skips heights", b.Hash)
			}
			if b.TotalDiff != parent.TotalDiff+b.Difficulty {
				t.Fatalf("block %s breaks total-difficulty accumulation", b.Hash)
			}
			return true
		})
	})

	t.Run("main chain contiguous and heaviest", func(t *testing.T) {
		main := reg.MainChain()
		maxTD := uint64(0)
		reg.Blocks(func(b *types.Block) bool {
			if b.TotalDiff > maxTD {
				maxTD = b.TotalDiff
			}
			return true
		})
		if main[len(main)-1].TotalDiff != maxTD {
			t.Error("main chain tip is not the heaviest block")
		}
		for i := 1; i < len(main); i++ {
			if main[i].ParentHash != main[i-1].Hash {
				t.Fatal("main chain not parent-linked")
			}
		}
	})

	t.Run("no transaction committed twice", func(t *testing.T) {
		seen := make(map[types.Hash]uint64)
		for _, b := range reg.MainChain() {
			for _, h := range b.TxHashes {
				if prev, dup := seen[h]; dup {
					t.Fatalf("tx %s in main blocks at heights %d and %d", h, prev, b.Number)
				}
				seen[h] = b.Number
			}
		}
	})

	t.Run("committed nonces contiguous per sender", func(t *testing.T) {
		// On the main chain, a sender's included nonces must be
		// 0,1,2,... in block order — the txpool's core guarantee.
		next := make(map[types.AccountID]uint64)
		for _, b := range reg.MainChain() {
			for _, h := range b.TxHashes {
				tx := campaign.store.Get(h)
				if tx == nil {
					t.Fatalf("main-chain tx %s missing from store", h)
				}
				if tx.Nonce != next[tx.Sender] {
					t.Fatalf("sender %d committed nonce %d, expected %d",
						tx.Sender, tx.Nonce, next[tx.Sender])
				}
				next[tx.Sender]++
			}
		}
	})

	t.Run("no block skips a sender nonce", func(t *testing.T) {
		// Every block, main chain or not, siblings included, must be
		// valid on its own parent: each of its transactions carries
		// the next nonce of its sender along the block's ancestry.
		next := make(map[types.Hash]map[types.AccountID]uint64)
		next[reg.Genesis().Hash] = map[types.AccountID]uint64{}
		reg.Blocks(func(b *types.Block) bool {
			if b.Hash == reg.Genesis().Hash {
				return true
			}
			nonces := maps.Clone(next[b.ParentHash])
			for _, h := range b.TxHashes {
				tx := campaign.store.Get(h)
				if tx == nil {
					t.Fatalf("block %s carries tx %s missing from store", b.Hash, h)
				}
				if tx.Nonce != nonces[tx.Sender] {
					t.Fatalf("block %s (height %d, pool %d) carries nonce %d of sender %d, whose next nonce on its parent is %d",
						b.Hash, b.Number, b.Miner, tx.Nonce, tx.Sender, nonces[tx.Sender])
				}
				nonces[tx.Sender]++
			}
			next[b.Hash] = nonces
			return true
		})
	})

	t.Run("uncle references valid", func(t *testing.T) {
		cited := make(map[types.Hash]bool)
		main := reg.MainChain()
		for _, b := range main {
			if len(b.Uncles) > reg.Protocol().MaxReferencesPerBlock() {
				t.Fatalf("block %s cites %d uncles", b.Hash, len(b.Uncles))
			}
			for _, u := range b.Uncles {
				if cited[u] {
					t.Fatalf("uncle %s cited twice on the main chain", u)
				}
				cited[u] = true
				uncle, ok := reg.Get(u)
				if !ok {
					t.Fatalf("cited uncle %s does not exist", u)
				}
				if uncle.Number >= b.Number || b.Number-uncle.Number > reg.Protocol().MaxReferenceDepth() {
					t.Fatalf("uncle %s at invalid depth %d", u, b.Number-uncle.Number)
				}
				if main[uncle.Number-main[0].Number].Hash == u {
					t.Fatalf("uncle %s is an ancestor of its citing block", u)
				}
			}
		}
	})

	t.Run("block capacity respected", func(t *testing.T) {
		reg.Blocks(func(b *types.Block) bool {
			if len(b.TxHashes) > cfg.Mining.BlockCapacity {
				t.Fatalf("block %s carries %d txs, capacity %d",
					b.Hash, len(b.TxHashes), cfg.Mining.BlockCapacity)
			}
			return true
		})
	})

	t.Run("records reference real blocks", func(t *testing.T) {
		for i := range records.blocks {
			r := &records.blocks[i]
			if _, ok := reg.Get(r.Hash); !ok {
				t.Fatalf("record references unknown block %s", r.Hash)
			}
		}
	})

	t.Run("each vantage records a transaction once", func(t *testing.T) {
		// A transaction floods once and settles each node once, so a
		// vantage sees it at most once with no filter of its own.
		if len(records.txs) == 0 {
			t.Fatal("campaign recorded no transactions")
		}
		type key struct {
			vantage string
			hash    types.Hash
		}
		seen := make(map[key]bool, len(records.txs))
		for _, r := range records.txs {
			k := key{r.Vantage, r.Hash}
			if seen[k] {
				t.Fatalf("vantage %s recorded tx %s twice", r.Vantage, r.Hash)
			}
			seen[k] = true
		}
	})

	t.Run("vantage timestamps within clock bounds", func(t *testing.T) {
		// Local timestamps may deviate from [0, Duration] by at most
		// the NTP model's maximum offset.
		maxOff := cfg.Clock.MaxOff
		for i := range records.blocks {
			at := records.blocks[i].At
			if at < -maxOff || at > cfg.Duration+maxOff {
				t.Fatalf("record timestamp %v outside campaign window", at)
			}
		}
	})

	t.Run("analysis block totals consistent", func(t *testing.T) {
		f := res.Forks
		if f.MainBlocks+f.RecognizedUncles+f.UnrecognizedSide != f.TotalBlocks {
			t.Error("fork analysis block partition does not sum")
		}
		if res.Throughput.MainBlocks+res.Throughput.SideBlocks != res.Throughput.TotalBlocks {
			t.Error("throughput block partition does not sum")
		}
	})

	t.Run("reward conservation", func(t *testing.T) {
		// Total issuance = 2 ETH per main block + uncle + nephew flows.
		var fromRows float64
		for _, r := range res.Rewards.Rows {
			fromRows += r.TotalETH
		}
		if diff := fromRows - res.Rewards.TotalETH; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("per-pool rewards %.6f != total %.6f", fromRows, res.Rewards.TotalETH)
		}
	})
}
