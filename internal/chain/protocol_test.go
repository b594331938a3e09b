package chain

import (
	"testing"

	"ethmeasure/internal/consensus"
	"ethmeasure/internal/types"
)

// buildFork grows a main chain of length n with one same-height
// sibling at every height, importing everything into a view.
func buildFork(t *testing.T, reg *Registry, n int) (*View, []*types.Block) {
	t.Helper()
	issuer := types.NewHashIssuer(7)
	v := NewView(reg)
	parent := reg.Genesis()
	var sibs []*types.Block
	for i := 0; i < n; i++ {
		blk := &types.Block{Hash: issuer.Next(), Number: parent.Number + 1, ParentHash: parent.Hash, Miner: 1}
		if err := reg.Add(blk); err != nil {
			t.Fatal(err)
		}
		v.Import(blk)
		sib := &types.Block{Hash: issuer.Next(), Number: parent.Number + 1, ParentHash: parent.Hash, Miner: 2}
		if err := reg.Add(sib); err != nil {
			t.Fatal(err)
		}
		v.Import(sib)
		sibs = append(sibs, sib)
		parent = blk
	}
	return v, sibs
}

func TestRegistryDefaultsToEthereum(t *testing.T) {
	reg := NewRegistry(0, types.NewHashIssuer(1))
	if reg.Protocol().Name() != consensus.EthereumName {
		t.Fatalf("default protocol = %q", reg.Protocol().Name())
	}
}

func TestBitcoinRegistryAcceptsNoUncles(t *testing.T) {
	reg := NewRegistry(0, types.NewHashIssuer(1))
	reg.SetProtocol(build(t, consensus.BitcoinName))
	v, sibs := buildFork(t, reg, 4)

	// Every sibling is one generation back from the tip — a valid uncle
	// under ethereum, never under bitcoin.
	head := v.Head()
	for _, sib := range sibs {
		if reg.ValidUncle(sib, head) {
			t.Errorf("sibling %s valid as uncle under bitcoin", sib.Hash)
		}
	}
	if got := v.UncleCandidates(2); len(got) != 0 {
		t.Errorf("bitcoin view offered %d uncle candidates", len(got))
	}
	// The fork choice itself is unchanged: the first-seen chain wins.
	if head.Number != 4 {
		t.Errorf("head at %d, want 4", head.Number)
	}
}

func TestGhostWindowReachesDeeperThanEthereum(t *testing.T) {
	mk := func(proto consensus.Protocol) (*Registry, *View, []*types.Block) {
		reg := NewRegistry(0, types.NewHashIssuer(1))
		if proto != nil {
			reg.SetProtocol(proto)
		}
		v, sibs := buildFork(t, reg, 12)
		return reg, v, sibs
	}

	// Depth of the oldest sibling (height 1) from a block extending the
	// height-12 head is 12 — outside ethereum's window, inside a
	// 12-generation ghost window.
	ethReg, ethView, ethSibs := mk(nil)
	if ethReg.ValidUncle(ethSibs[0], ethView.Head()) {
		t.Error("ethereum recognized a depth-12 uncle")
	}

	ghost, err := consensus.Build(consensus.Spec{
		Name:   consensus.GhostInclusiveName,
		Params: map[string]string{"depth": "12", "cap": "8"},
	})
	if err != nil {
		t.Fatal(err)
	}
	gReg, gView, gSibs := mk(ghost)
	if !gReg.ValidUncle(gSibs[0], gView.Head()) {
		t.Error("ghost-inclusive rejected a depth-12 uncle")
	}
	if got := gView.UncleCandidates(8); len(got) != 8 {
		t.Errorf("ghost view offered %d candidates, want the full cap of 8", len(got))
	}
}

// TestViewPruneWindowCoversReferenceWindow: a protocol whose reference
// window exceeds the default prune horizon widens the view's retention
// window instead of silently pruning referenceable candidates.
func TestViewPruneWindowCoversReferenceWindow(t *testing.T) {
	deep, err := consensus.Build(consensus.Spec{
		Name:   consensus.GhostInclusiveName,
		Params: map[string]string{"depth": "200"},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(0, types.NewHashIssuer(1))
	reg.SetProtocol(deep)
	v := NewView(reg)
	if v.pruneWindow < 200 {
		t.Fatalf("pruneWindow %d below the 200-generation reference window", v.pruneWindow)
	}
	// The ethereum default keeps the historical horizon.
	ethView := NewView(NewRegistry(0, types.NewHashIssuer(1)))
	if ethView.pruneWindow != 128 {
		t.Fatalf("ethereum pruneWindow = %d, want 128", ethView.pruneWindow)
	}
}

func TestSetProtocolGuards(t *testing.T) {
	reg := NewRegistry(0, types.NewHashIssuer(1))
	defer func() {
		if recover() == nil {
			t.Fatal("SetProtocol(nil) did not panic")
		}
	}()
	reg.SetProtocol(nil)
}

func TestSetProtocolAfterBlocksPanics(t *testing.T) {
	issuer := types.NewHashIssuer(1)
	reg := NewRegistry(0, issuer)
	g := reg.Genesis()
	if err := reg.Add(&types.Block{Hash: issuer.Next(), Number: g.Number + 1, ParentHash: g.Hash, Miner: 1}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mid-chain SetProtocol did not panic")
		}
	}()
	reg.SetProtocol(build(t, consensus.BitcoinName))
}

// build returns the named protocol with its default parameters, as a
// campaign's config builds it.
func build(t testing.TB, name string) consensus.Protocol {
	t.Helper()
	p, err := consensus.Build(consensus.Spec{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	return p
}
