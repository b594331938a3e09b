package chain

import (
	"testing"

	"ethmeasure/internal/types"
)

func TestViewImportForkChoice(t *testing.T) {
	tc := newTestChain(t)
	v := NewView(tc.reg)
	g := tc.reg.Genesis()
	if v.Head() != g {
		t.Fatal("fresh view head should be genesis")
	}

	a1 := tc.extend(g, 1)
	if !v.Import(a1) {
		t.Error("importing heavier block must change head")
	}
	if v.Head() != a1 {
		t.Error("head should be a1")
	}

	// Same-difficulty sibling: incumbent wins (first-seen rule).
	b1 := tc.extend(g, 2)
	if v.Import(b1) {
		t.Error("tie must not reorg")
	}
	if v.Head() != a1 {
		t.Error("head should remain a1 after tie")
	}

	// Heavier extension of the other branch reorgs.
	b2 := tc.extend(b1, 2)
	if !v.Import(b2) {
		t.Error("heavier branch must reorg")
	}
	if v.Head() != b2 {
		t.Error("head should be b2")
	}
}

func TestViewImportDeduplicates(t *testing.T) {
	tc := newTestChain(t)
	v := NewView(tc.reg)
	b := tc.extend(tc.reg.Genesis(), 1)
	if !v.Import(b) {
		t.Fatal("first import should reorg")
	}
	if v.Import(b) {
		t.Error("re-import must be a no-op")
	}
}

func TestViewKnows(t *testing.T) {
	tc := newTestChain(t)
	v := NewView(tc.reg)
	g := tc.reg.Genesis()
	if !v.Knows(g.Hash) {
		t.Error("view must know genesis")
	}
	b := tc.extend(g, 1)
	if v.Knows(b.Hash) {
		t.Error("unimported block must be unknown")
	}
	v.Import(b)
	if !v.Knows(b.Hash) {
		t.Error("imported block must be known")
	}
	if v.Knows(types.Hash(0xfeed)) {
		t.Error("random hash must be unknown")
	}
}

func TestViewUncleCandidates(t *testing.T) {
	tc := newTestChain(t)
	v := NewView(tc.reg)
	g := tc.reg.Genesis()
	a1 := tc.extend(g, 1)
	u1 := tc.extend(g, 2)
	u2 := tc.extend(g, 3)
	u3 := tc.extend(g, 4)
	for _, b := range []*types.Block{a1, u1, u2, u3} {
		v.Import(b)
	}
	// Head is a1; siblings u1..u3 are candidates, capped at max.
	got := v.UncleCandidates(2)
	if len(got) != 2 {
		t.Fatalf("candidates = %v, want 2", got)
	}
	all := v.UncleCandidates(10)
	if len(all) != 3 {
		t.Fatalf("all candidates = %v, want 3", all)
	}
	if v.UncleCandidates(0) != nil {
		t.Error("max 0 must return nil")
	}

	// Candidates must disappear once referenced.
	a2 := tc.extend(a1, 1, u1.Hash)
	v.Import(a2)
	for _, h := range v.UncleCandidates(10) {
		if h == u1.Hash {
			t.Error("referenced uncle still offered as candidate")
		}
	}
}

func TestViewUncleCandidatesForLaggingParent(t *testing.T) {
	tc := newTestChain(t)
	v := NewView(tc.reg)
	g := tc.reg.Genesis()
	a1 := tc.extend(g, 1)
	u1 := tc.extend(g, 2)
	a2 := tc.extend(a1, 1)
	for _, b := range []*types.Block{a1, u1, a2} {
		v.Import(b)
	}
	// Mining on a1 (lagging job) must still validate u1 against a1.
	got := v.UncleCandidatesFor(a1, 2)
	if len(got) != 1 || got[0] != u1.Hash {
		t.Errorf("candidates for lagging parent = %v", got)
	}
}

func TestViewPruneKeepsRecentWindow(t *testing.T) {
	tc := newTestChain(t)
	v := NewView(tc.reg)
	head := tc.reg.Genesis()
	var old *types.Block
	for i := 0; i < 400; i++ {
		head = tc.extend(head, 1)
		v.Import(head)
		if i == 0 {
			old = head
		}
	}
	// The oldest block fell out of the tracked window but is still
	// treated as known (ancient history is never re-requested).
	if !v.Knows(old.Hash) {
		t.Error("ancient block should still report known")
	}
	if len(v.KnownAtHeight(old.Number)) != 0 {
		t.Error("ancient height should have been pruned from the index")
	}
	if len(v.KnownAtHeight(head.Number)) != 1 {
		t.Error("recent height must remain tracked")
	}
	if v.Head() != head {
		t.Error("head lost during pruning")
	}
}

func TestReorgPaths(t *testing.T) {
	tc := newTestChain(t)
	g := tc.reg.Genesis()
	a1 := tc.extend(g, 1)
	a2 := tc.extend(a1, 1)
	b1 := tc.extend(g, 2)
	b2 := tc.extend(b1, 2)
	b3 := tc.extend(b2, 2)

	// Straight extension: nothing abandoned.
	abandoned, adopted := Reorg(tc.reg, a1, a2, 16)
	if len(abandoned) != 0 {
		t.Errorf("abandoned = %v on extension", abandoned)
	}
	if len(adopted) != 1 || adopted[0] != a2 {
		t.Errorf("adopted = %v", adopted)
	}

	// Cross-branch reorg from a2 to b3.
	abandoned, adopted = Reorg(tc.reg, a2, b3, 16)
	if len(abandoned) != 2 || abandoned[0] != a2 || abandoned[1] != a1 {
		t.Errorf("abandoned = %v", abandoned)
	}
	if len(adopted) != 3 || adopted[0] != b1 || adopted[1] != b2 || adopted[2] != b3 {
		t.Errorf("adopted = %v", adopted)
	}

	// No-op reorg.
	abandoned, adopted = Reorg(tc.reg, b3, b3, 16)
	if len(abandoned) != 0 || len(adopted) != 0 {
		t.Error("self-reorg should be empty")
	}
}

func TestReorgDepthBound(t *testing.T) {
	tc := newTestChain(t)
	g := tc.reg.Genesis()
	head := g
	for i := 0; i < 50; i++ {
		head = tc.extend(head, 1)
	}
	// Walk limited to maxDepth steps must not panic or run away.
	abandoned, adopted := Reorg(tc.reg, g, head, 10)
	if len(abandoned) != 0 {
		t.Errorf("abandoned = %v", abandoned)
	}
	if len(adopted) > 10 {
		t.Errorf("adopted %d blocks, beyond depth bound", len(adopted))
	}
}

// KnownAtHeight returns the hashes the view tracks at a height
// (diagnostics and tests).
func (v *View) KnownAtHeight(n uint64) []types.Hash {
	at := v.tracked[v.from(n):]
	k := 0
	for k < len(at) && at[k].num == n {
		k++
	}
	out := make([]types.Hash, k)
	for i := range out {
		out[i] = at[i].hash
	}
	return out
}
