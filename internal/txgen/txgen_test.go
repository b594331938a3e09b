package txgen

import (
	"math"
	"runtime"
	"testing"
	"time"

	"ethmeasure/internal/chain"
	"ethmeasure/internal/geo"
	"ethmeasure/internal/p2p"
	"ethmeasure/internal/sim"
	"ethmeasure/internal/simnet"
	"ethmeasure/internal/types"
)

func genHarness(t *testing.T, n int) (*sim.Engine, []*p2p.Node) {
	t.Helper()
	engine := sim.NewEngine(1)
	net := simnet.New(engine, geo.UniformLatencyModel(10*time.Millisecond, 0))
	issuer := types.NewHashIssuer(1)
	reg := chain.NewRegistry(0, issuer)
	cfg := p2p.DefaultConfig()
	var nodes []*p2p.Node
	for i := 0; i < n; i++ {
		region := geo.NorthAmerica
		if i%2 == 1 {
			region = geo.EasternAsia
		}
		endpoint, err := net.AddNode(region, 1e9)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, p2p.NewNode(&cfg, net, endpoint, reg))
	}
	for i := range nodes {
		for j := i + 1; j < len(nodes); j++ {
			p2p.Connect(nodes[i], nodes[j])
		}
	}
	return engine, nodes
}

func senderDist() *geo.Distribution {
	return geo.MustDistribution(map[geo.Region]float64{
		geo.NorthAmerica: 0.5,
		geo.EasternAsia:  0.5,
	})
}

func TestNewValidation(t *testing.T) {
	engine, nodes := genHarness(t, 3)
	store := NewStore()
	issuer := types.NewHashIssuer(2)

	bad := DefaultConfig()
	bad.Rate = 0
	if _, err := New(bad, engine, nodes, senderDist(), issuer, store); err == nil {
		t.Error("zero rate must error")
	}
	bad = DefaultConfig()
	bad.NumAccounts = 0
	if _, err := New(bad, engine, nodes, senderDist(), issuer, store); err == nil {
		t.Error("zero accounts must error")
	}
	if _, err := New(DefaultConfig(), engine, nil, senderDist(), issuer, store); err == nil {
		t.Error("no entry nodes must error")
	}
}

func TestGeneratorRateAndNonces(t *testing.T) {
	engine, nodes := genHarness(t, 4)
	store := NewStore()
	cfg := DefaultConfig()
	cfg.Rate = 2.0
	cfg.NumAccounts = 50
	gen, err := New(cfg, engine, nodes, senderDist(), types.NewHashIssuer(2), store)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 10 * time.Minute
	gen.Start(horizon)
	if _, err := engine.Run(horizon); err != nil {
		t.Fatal(err)
	}
	// Effective rate = 2.0 × burst multiplier.
	eff := cfg.EffectiveRate()
	want := eff * horizon.Seconds()
	got := float64(gen.Created())
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("created %d txs, want ≈%.0f", gen.Created(), want)
	}
	if gen.Bursts() == 0 {
		t.Error("no bursts with BurstProb > 0")
	}

	// Nonces per sender must be gapless starting at zero.
	perSender := make(map[types.AccountID][]uint64)
	store.All(func(tx *types.Transaction) bool {
		perSender[tx.Sender] = append(perSender[tx.Sender], tx.Nonce)
		return true
	})
	for sender, nonces := range perSender {
		seen := make(map[uint64]bool, len(nonces))
		maxN := uint64(0)
		for _, n := range nonces {
			if seen[n] {
				t.Fatalf("sender %d issued nonce %d twice", sender, n)
			}
			seen[n] = true
			if n > maxN {
				maxN = n
			}
		}
		if int(maxN)+1 != len(nonces) {
			t.Fatalf("sender %d nonces not contiguous: %d nonces, max %d", sender, len(nonces), maxN)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	run := func() []types.Hash {
		engine, nodes := genHarness(t, 3)
		store := NewStore()
		cfg := DefaultConfig()
		cfg.Rate = 1
		cfg.NumAccounts = 10
		gen, err := New(cfg, engine, nodes, senderDist(), types.NewHashIssuer(2), store)
		if err != nil {
			t.Fatal(err)
		}
		gen.Start(2 * time.Minute)
		if _, err := engine.Run(2 * time.Minute); err != nil {
			t.Fatal(err)
		}
		var hashes []types.Hash
		store.All(func(tx *types.Transaction) bool {
			hashes = append(hashes, tx.Hash)
			return true
		})
		return hashes
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestMarketPricesAboveFloor(t *testing.T) {
	engine, nodes := genHarness(t, 3)
	store := NewStore()
	cfg := DefaultConfig()
	cfg.Rate = 5
	cfg.NumAccounts = 20
	gen, err := New(cfg, engine, nodes, senderDist(), types.NewHashIssuer(2), store)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start(time.Minute)
	if _, err := engine.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	store.All(func(tx *types.Transaction) bool {
		if tx.GasPrice < marketPriceFloor {
			t.Fatalf("market tx priced %d below floor %d", tx.GasPrice, marketPriceFloor)
		}
		return true
	})
}

func TestMempoolFloorInjectsFiller(t *testing.T) {
	engine, nodes := genHarness(t, 3)
	store := NewStore()
	cfg := DefaultConfig()
	cfg.Rate = 0.01 // nearly no market traffic
	cfg.NumAccounts = 5
	cfg.MempoolFloor = 30
	gen, err := New(cfg, engine, nodes, senderDist(), types.NewHashIssuer(2), store)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start(time.Minute)
	if _, err := engine.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	if gen.Outstanding() < 30 {
		t.Errorf("outstanding = %d, want ≥ floor", gen.Outstanding())
	}
	// Filler stops once the floor is reached: outstanding stays near
	// the floor rather than growing with time.
	if gen.Outstanding() > 60 {
		t.Errorf("outstanding = %d, controller overshooting", gen.Outstanding())
	}
	// Filler senders use IDs above the market account range and
	// strictly sequential nonces.
	fillerTxs := 0
	perSender := make(map[types.AccountID]uint64)
	store.All(func(tx *types.Transaction) bool {
		if tx.Sender > types.AccountID(cfg.NumAccounts) {
			fillerTxs++
			if want := perSender[tx.Sender]; tx.Nonce != want {
				t.Fatalf("filler sender %d nonce %d, want %d", tx.Sender, tx.Nonce, want)
			}
			perSender[tx.Sender]++
		}
		return true
	})
	if fillerTxs == 0 {
		t.Fatal("no filler injected despite empty mempool")
	}
}

func TestNoteIncludedDedupes(t *testing.T) {
	engine, nodes := genHarness(t, 3)
	store := NewStore()
	cfg := DefaultConfig()
	cfg.MempoolFloor = 10
	gen, err := New(cfg, engine, nodes, senderDist(), types.NewHashIssuer(2), store)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start(time.Minute)
	if _, err := engine.Run(time.Minute); err != nil {
		t.Fatal(err)
	}
	before := gen.Outstanding()
	if before == 0 {
		t.Fatal("no outstanding txs")
	}
	var hash types.Hash
	store.All(func(tx *types.Transaction) bool {
		hash = tx.Hash
		return false
	})
	gen.NoteIncluded([]types.Hash{hash})
	mid := gen.Outstanding()
	if mid != before-1 {
		t.Fatalf("outstanding %d → %d after inclusion", before, mid)
	}
	// A fork block reporting the same tx must not double-count.
	gen.NoteIncluded([]types.Hash{hash})
	if gen.Outstanding() != mid {
		t.Error("duplicate inclusion changed the outstanding count")
	}
}

// TestNoteIncludedAllocatesNothing: inclusion is a flag on the stored
// transaction, so the generator keeps no set of included hashes, and
// noting the inclusion of 6 400 new transactions allocates nothing.
func TestNoteIncludedAllocatesNothing(t *testing.T) {
	engine, nodes := genHarness(t, 3)
	store := NewStore()
	gen, err := New(DefaultConfig(), engine, nodes, senderDist(), types.NewHashIssuer(2), store)
	if err != nil {
		t.Fatal(err)
	}
	issuer := types.NewHashIssuer(3)
	blocks := make([][]types.Hash, 64)
	for i := range blocks {
		for j := 0; j < 100; j++ {
			tx := &types.Transaction{Hash: issuer.Next(), Size: types.TxSize}
			store.Add(tx)
			blocks[i] = append(blocks[i], tx.Hash)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range blocks {
		gen.NoteIncluded(b)
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != 0 {
		t.Fatalf("noting 6 400 inclusions made %d allocations, want 0", got)
	}
	store.All(func(tx *types.Transaction) bool {
		if !tx.Included {
			t.Fatalf("tx %v not flagged included", tx.Hash)
		}
		return true
	})
}

func TestEffectiveRate(t *testing.T) {
	cfg := Config{Rate: 2, BurstProb: 0.5, BurstMeanExtra: 3}
	// Each event carries 1 + 0.5·(1+3) = 3 txs on average → 6 tx/s.
	if got := cfg.EffectiveRate(); math.Abs(got-6) > 1e-9 {
		t.Errorf("EffectiveRate = %f, want 6", got)
	}
	plain := Config{Rate: 2}
	if got := plain.EffectiveRate(); got != 2 {
		t.Errorf("no-burst EffectiveRate = %f", got)
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	if s.Len() != 0 || s.Get(types.Hash(1)) != nil {
		t.Error("empty store misbehaves")
	}
	tx1 := &types.Transaction{Hash: 1}
	tx2 := &types.Transaction{Hash: 2}
	s.Add(tx1)
	s.Add(tx2)
	if s.Len() != 2 || s.Get(1) != tx1 {
		t.Error("store lookup failed")
	}
	var order []types.Hash
	s.All(func(tx *types.Transaction) bool {
		order = append(order, tx.Hash)
		return true
	})
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("All order = %v", order)
	}
	count := 0
	s.All(func(*types.Transaction) bool {
		count++
		return false
	})
	if count != 1 {
		t.Error("All must stop when fn returns false")
	}
}

func TestGeometricMean(t *testing.T) {
	engine := sim.NewEngine(1)
	rng := engine.RNG("g")
	const n = 50000
	sum := 0
	for i := 0; i < n; i++ {
		sum += geometric(rng, 1.6)
	}
	mean := float64(sum) / n
	if math.Abs(mean-1.6) > 0.1 {
		t.Errorf("geometric mean %.2f, want ≈1.6", mean)
	}
	if geometric(rng, 0) != 0 {
		t.Error("zero mean must give zero")
	}
}
