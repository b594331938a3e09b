package txpool

import (
	"testing"

	"ethmeasure/internal/types"
)

// BenchmarkAddAndSelect measures the miner-side hot path: transactions
// arriving plus per-block executable selection.
func BenchmarkAddAndSelect(b *testing.B) {
	p := New()
	hash := types.Hash(1)
	nonces := make(map[types.AccountID]uint64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sender := types.AccountID(i%64 + 1)
		hash++
		p.Add(&types.Transaction{
			Hash:     hash,
			Sender:   sender,
			Nonce:    nonces[sender],
			GasPrice: uint64(i%100 + 1),
		})
		nonces[sender]++
		if i%16 == 15 {
			selected := p.Executable(20, nil)
			p.MarkIncluded(selected)
		}
	}
}

func BenchmarkExecutableLargePool(b *testing.B) {
	p := New()
	hash := types.Hash(1)
	for s := types.AccountID(1); s <= 200; s++ {
		for n := uint64(0); n < 10; n++ {
			hash++
			p.Add(&types.Transaction{Hash: hash, Sender: s, Nonce: n, GasPrice: uint64(s)})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.Executable(150, nil); len(got) != 150 {
			b.Fatalf("selected %d", len(got))
		}
	}
}
