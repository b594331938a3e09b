package chain

import (
	"testing"

	"ethmeasure/internal/types"
)

// BenchmarkRegistryAdd measures chain growth cost.
func BenchmarkRegistryAdd(b *testing.B) {
	issuer := types.NewHashIssuer(1)
	reg := NewRegistry(0, issuer)
	parent := reg.Genesis()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := &types.Block{
			Hash:       issuer.Next(),
			Number:     parent.Number + 1,
			ParentHash: parent.Hash,
			Miner:      1,
		}
		if err := reg.Add(blk); err != nil {
			b.Fatal(err)
		}
		parent = blk
	}
}

// BenchmarkViewImport measures the per-node import path including fork
// choice, the second-hottest operation after message delivery. It
// imports one fixed 4096-block chain into a fresh view per cycle, as
// ethbench's chain/viewimport does: a chain of b.N blocks would make
// set-up memory grow with however many imports the harness asks for.
func BenchmarkViewImport(b *testing.B) {
	const chainLen = 4096
	issuer := types.NewHashIssuer(1)
	reg := NewRegistry(0, issuer)
	parent := reg.Genesis()
	blocks := make([]*types.Block, chainLen)
	for i := range blocks {
		blk := &types.Block{
			Hash:       issuer.Next(),
			Number:     parent.Number + 1,
			ParentHash: parent.Hash,
			Miner:      1,
		}
		if err := reg.Add(blk); err != nil {
			b.Fatal(err)
		}
		blocks[i] = blk
		parent = blk
	}
	var v *View
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % chainLen
		if j == 0 {
			v = NewView(reg)
		}
		v.Import(blocks[j])
	}
}

// BenchmarkUncleCandidates measures the miner's uncle sweep.
func BenchmarkUncleCandidates(b *testing.B) {
	issuer := types.NewHashIssuer(1)
	reg := NewRegistry(0, issuer)
	v := NewView(reg)
	parent := reg.Genesis()
	for i := 0; i < 64; i++ {
		blk := &types.Block{Hash: issuer.Next(), Number: parent.Number + 1, ParentHash: parent.Hash, Miner: 1}
		if err := reg.Add(blk); err != nil {
			b.Fatal(err)
		}
		v.Import(blk)
		// A sibling at every height keeps the candidate sweep busy.
		sib := &types.Block{Hash: issuer.Next(), Number: parent.Number + 1, ParentHash: parent.Hash, Miner: 2}
		if err := reg.Add(sib); err != nil {
			b.Fatal(err)
		}
		v.Import(sib)
		parent = blk
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.UncleCandidates(2)
	}
}

// BenchmarkMainChain measures the end-of-run chain walk the analysis
// pipeline performs repeatedly.
func BenchmarkMainChain(b *testing.B) {
	issuer := types.NewHashIssuer(1)
	reg := NewRegistry(0, issuer)
	parent := reg.Genesis()
	for i := 0; i < 10_000; i++ {
		blk := &types.Block{Hash: issuer.Next(), Number: parent.Number + 1, ParentHash: parent.Hash, Miner: 1}
		if err := reg.Add(blk); err != nil {
			b.Fatal(err)
		}
		parent = blk
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := reg.MainChain(); len(got) != 10_001 {
			b.Fatal("wrong chain length")
		}
	}
}
