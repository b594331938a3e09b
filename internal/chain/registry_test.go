package chain

import (
	"testing"
	"testing/quick"

	"ethmeasure/internal/consensus"
	"ethmeasure/internal/types"
)

// testChain is a builder for registry fixtures.
type testChain struct {
	t      *testing.T
	reg    *Registry
	issuer *types.HashIssuer
}

func newTestChain(t *testing.T) *testChain {
	t.Helper()
	issuer := types.NewHashIssuer(9)
	return &testChain{t: t, reg: NewRegistry(100, issuer), issuer: issuer}
}

// extend mines a block on top of parent and registers it.
func (tc *testChain) extend(parent *types.Block, miner types.PoolID, uncles ...types.Hash) *types.Block {
	tc.t.Helper()
	b := &types.Block{
		Hash:       tc.issuer.Next(),
		Number:     parent.Number + 1,
		ParentHash: parent.Hash,
		Miner:      miner,
		Uncles:     uncles,
		Difficulty: 1,
	}
	if err := tc.reg.Add(b); err != nil {
		tc.t.Fatalf("add block: %v", err)
	}
	return b
}

func TestRegistryGenesis(t *testing.T) {
	tc := newTestChain(t)
	g := tc.reg.Genesis()
	if g.Number != 100 {
		t.Errorf("genesis number %d", g.Number)
	}
	if tc.reg.Len() != 1 {
		t.Errorf("len = %d", tc.reg.Len())
	}
	if got, ok := tc.reg.Get(g.Hash); !ok || got != g {
		t.Error("Get(genesis) failed")
	}
}

func TestRegistryAddErrors(t *testing.T) {
	tc := newTestChain(t)
	g := tc.reg.Genesis()
	b := tc.extend(g, 1)

	dup := *b
	if err := tc.reg.Add(&dup); err == nil {
		t.Error("duplicate add must error")
	}
	if err := tc.reg.Add(&types.Block{
		Hash:       tc.issuer.Next(),
		Number:     102,
		ParentHash: types.Hash(0xdead),
	}); err == nil {
		t.Error("unknown parent must error")
	}
	if err := tc.reg.Add(&types.Block{
		Hash:       tc.issuer.Next(),
		Number:     g.Number + 5, // skips heights
		ParentHash: g.Hash,
	}); err == nil {
		t.Error("non-consecutive number must error")
	}
}

func TestRegistryTotalDifficultyAccumulates(t *testing.T) {
	tc := newTestChain(t)
	b1 := tc.extend(tc.reg.Genesis(), 1)
	b2 := tc.extend(b1, 1)
	if b1.TotalDiff != 2 || b2.TotalDiff != 3 {
		t.Errorf("total difficulties %d, %d", b1.TotalDiff, b2.TotalDiff)
	}
}

func TestRegistryHeadPrefersHeavierThenEarlier(t *testing.T) {
	tc := newTestChain(t)
	g := tc.reg.Genesis()
	a1 := tc.extend(g, 1)
	b1 := tc.extend(g, 2) // same height fork, added later
	if got := tc.reg.Head(); got != a1 {
		t.Errorf("tie should keep first-created block, got %s", got.Hash)
	}
	b2 := tc.extend(b1, 2)
	if got := tc.reg.Head(); got != b2 {
		t.Errorf("heavier branch should win, got %s", got.Hash)
	}
}

func TestRegistryMainChain(t *testing.T) {
	tc := newTestChain(t)
	g := tc.reg.Genesis()
	a1 := tc.extend(g, 1)
	tc.extend(g, 2) // fork at same height
	a2 := tc.extend(a1, 1)
	a3 := tc.extend(a2, 3)

	main := tc.reg.MainChain()
	wantHashes := []types.Hash{g.Hash, a1.Hash, a2.Hash, a3.Hash}
	if len(main) != len(wantHashes) {
		t.Fatalf("main chain length %d, want %d", len(main), len(wantHashes))
	}
	for i, b := range main {
		if b.Hash != wantHashes[i] {
			t.Errorf("main[%d] = %s, want %s", i, b.Hash, wantHashes[i])
		}
		if i > 0 && b.Number != main[i-1].Number+1 {
			t.Error("main chain heights not contiguous")
		}
	}
}

func TestValidUncleRules(t *testing.T) {
	tc := newTestChain(t)
	g := tc.reg.Genesis()
	a1 := tc.extend(g, 1)
	u1 := tc.extend(g, 2) // sibling of a1: valid uncle for blocks on a-chain
	a2 := tc.extend(a1, 1)

	if !tc.reg.ValidUncle(u1, a2) {
		t.Error("sibling-branch child should be a valid uncle")
	}
	if tc.reg.ValidUncle(a1, a2) {
		t.Error("an ancestor is not a valid uncle")
	}

	// A fork-of-a-fork (length-2 side chain) is unrecognizable: its
	// parent is a side block, not an ancestor — Table III's finding.
	u2 := tc.extend(u1, 2)
	if tc.reg.ValidUncle(u2, a2) {
		t.Error("second block of a side chain must not validate as uncle")
	}

	// Referencing consumes the uncle within the window.
	a3 := tc.extend(a2, 1, u1.Hash)
	if tc.reg.ValidUncle(u1, a3) {
		t.Error("already-referenced uncle must be rejected")
	}

	// Depth limit: uncles older than the ethereum protocol's reference
	// depth expire.
	head := a3
	for i := 0; i < consensus.EthereumUncleDepth; i++ {
		head = tc.extend(head, 1)
	}
	fresh := tc.extend(g, 3) // another sibling at height 101
	if tc.reg.ValidUncle(fresh, head) {
		t.Error("uncle beyond depth window must be rejected")
	}
}

func TestUncleRefs(t *testing.T) {
	tc := newTestChain(t)
	g := tc.reg.Genesis()
	a1 := tc.extend(g, 1)
	u1 := tc.extend(g, 2)
	a2 := tc.extend(a1, 1, u1.Hash)
	tc.extend(a2, 1)

	refs := map[types.Hash][]types.Hash{}
	for _, b := range tc.reg.MainChain() {
		for _, u := range b.Uncles {
			refs[u] = append(refs[u], b.Hash)
		}
	}
	if got := refs[u1.Hash]; len(got) != 1 || got[0] != a2.Hash {
		t.Errorf("uncle refs of u1 = %v", got)
	}
	if len(refs) != 1 {
		t.Errorf("refs = %v", refs)
	}
}

func TestRegistryBlocksIterationOrderAndStop(t *testing.T) {
	tc := newTestChain(t)
	g := tc.reg.Genesis()
	b1 := tc.extend(g, 1)
	tc.extend(b1, 1)
	var seen []types.Hash
	tc.reg.Blocks(func(b *types.Block) bool {
		seen = append(seen, b.Hash)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != g.Hash || seen[1] != b1.Hash {
		t.Errorf("iteration %v", seen)
	}
}

func TestMustGetPanicsOnMissing(t *testing.T) {
	tc := newTestChain(t)
	defer func() {
		if recover() == nil {
			t.Fatal("MustGet on missing hash should panic")
		}
	}()
	tc.reg.MustGet(types.Hash(0xbeef))
}

// Property: after growing random fork structures, the head always has
// the maximal total difficulty and the main chain is contiguous.
func TestRegistryForkChoiceProperty(t *testing.T) {
	f := func(choices []uint8) bool {
		issuer := types.NewHashIssuer(3)
		reg := NewRegistry(0, issuer)
		blocks := []*types.Block{reg.Genesis()}
		for _, c := range choices {
			parent := blocks[int(c)%len(blocks)]
			b := &types.Block{
				Hash:       issuer.Next(),
				Number:     parent.Number + 1,
				ParentHash: parent.Hash,
				Miner:      1,
			}
			if err := reg.Add(b); err != nil {
				return false
			}
			blocks = append(blocks, b)
		}
		head := reg.Head()
		maxTD := uint64(0)
		reg.Blocks(func(b *types.Block) bool {
			if b.TotalDiff > maxTD {
				maxTD = b.TotalDiff
			}
			return true
		})
		if head.TotalDiff != maxTD {
			return false
		}
		main := reg.MainChain()
		for i := 1; i < len(main); i++ {
			if main[i].Number != main[i-1].Number+1 || main[i].ParentHash != main[i-1].Hash {
				return false
			}
		}
		return main[len(main)-1] == head
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// foldHead is the reference head: the protocol's preference folded
// over every block in creation order, starting from genesis (ties keep
// the earliest block).
func foldHead(r *Registry) *types.Block {
	best := r.Genesis()
	r.Blocks(func(b *types.Block) bool {
		if r.Protocol().Prefer(b, best) {
			best = b
		}
		return true
	})
	return best
}

// Property: under every protocol, the head the registry keeps as
// blocks arrive equals the creation-order fold after every Add, on
// random block trees with mixed difficulties (so heavier-but-lower
// branches and total-difficulty ties both occur).
func TestRegistryHeadMatchesCreationOrderFold(t *testing.T) {
	protocols := []consensus.Protocol{consensus.Ethereum(), build(t, consensus.BitcoinName), build(t, consensus.GhostInclusiveName)}
	for _, proto := range protocols {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			f := func(choices []uint16) bool {
				issuer := types.NewHashIssuer(5)
				reg := NewRegistry(0, issuer)
				reg.SetProtocol(proto)
				blocks := []*types.Block{reg.Genesis()}
				if reg.Head() != foldHead(reg) {
					return false
				}
				for _, c := range choices {
					parent := blocks[int(c>>2)%len(blocks)]
					b := &types.Block{
						Hash:       issuer.Next(),
						Number:     parent.Number + 1,
						ParentHash: parent.Hash,
						Miner:      1,
						Difficulty: uint64(c&3) + 1,
					}
					if err := reg.Add(b); err != nil {
						return false
					}
					blocks = append(blocks, b)
					if reg.Head() != foldHead(reg) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
