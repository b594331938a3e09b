// Package txgen generates the transaction workload: Poisson arrivals
// from a geo-distributed, skewed population of senders, with per-sender
// monotonically increasing nonces. Bursty senders that submit several
// consecutive-nonce transactions through different (load-balanced)
// entry nodes are the mechanism behind the out-of-order receptions the
// paper quantifies (§III-C2: 11.54% of committed transactions).
package txgen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"ethmeasure/internal/geo"
	"ethmeasure/internal/p2p"
	"ethmeasure/internal/rlp"
	"ethmeasure/internal/sim"
	"ethmeasure/internal/types"
)

// Config parameterises the workload.
type Config struct {
	// Rate is the mean transaction arrival rate (tx/second). The paper
	// period averaged ~8.2 tx/s on mainnet; scaled-down runs use less.
	Rate float64

	// NumAccounts is the sender population size.
	NumAccounts int

	// SkewExponent shapes the Zipf-like sender activity skew
	// (0 = uniform; ~0.8 gives a realistic heavy head of exchanges).
	SkewExponent float64

	// BurstProb is the probability that an arrival event is a burst of
	// several transactions with consecutive nonces.
	BurstProb float64

	// BurstMeanExtra is the mean number of extra transactions in a
	// burst beyond the first (geometric).
	BurstMeanExtra float64

	// MultiEntryProb is the probability that a burst transaction after
	// the first enters the network through a different random node
	// (load-balanced API endpoints), which is what scrambles arrival
	// order relative to nonce order.
	MultiEntryProb float64

	// BurstSpacingMax bounds the intra-burst submission spacing.
	BurstSpacingMax time.Duration

	// GasPriceMean is the mean of the (exponential) gas price
	// distribution, in arbitrary priority units.
	GasPriceMean float64

	// MempoolFloor, when positive, keeps at least this many generated
	// transactions outstanding (created but not yet included) by
	// injecting low-fee filler transactions. Mainnet's mempool never
	// runs dry — there is always a reservoir of cheap pending
	// transactions — and without this floor, scaled-down simulations
	// drain their pools and mint spurious empty blocks that would
	// corrupt the Figure 6 analysis.
	MempoolFloor int

	// FloorCheckEvery is the controller's sampling interval.
	FloorCheckEvery time.Duration

	// FloorPriceMean is the (low) mean gas price of filler traffic;
	// market transactions outprice it.
	FloorPriceMean float64

	// FloorAccounts is the number of dedicated filler sender accounts.
	FloorAccounts int
}

// DefaultConfig returns workload parameters calibrated to reproduce
// the paper's out-of-order share at simulation scale.
func DefaultConfig() Config {
	return Config{
		Rate:            1.0,
		NumAccounts:     2000,
		SkewExponent:    0.8,
		BurstProb:       0.22,
		BurstMeanExtra:  1.6,
		MultiEntryProb:  0.45,
		BurstSpacingMax: 250 * time.Millisecond,
		GasPriceMean:    20,
		FloorCheckEvery: 2 * time.Second,
		FloorPriceMean:  0.5,
		FloorAccounts:   64,
	}
}

// EffectiveRate returns the actual mean transaction rate including
// burst inflation: each arrival event carries 1 + BurstProb·(1 +
// BurstMeanExtra) transactions on average. Block capacity must be
// derived from this, not from Rate, or blocks run out of headroom and
// low-fee transactions starve.
func (c *Config) EffectiveRate() float64 {
	return c.Rate * (1 + c.BurstProb*(1+c.BurstMeanExtra))
}

// Store indexes every generated transaction by hash. It doubles as the
// TxResolver for the mining subsystem and the ground truth for
// analysis.
type Store struct {
	byHash map[types.Hash]*types.Transaction
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{byHash: make(map[types.Hash]*types.Transaction, 1024)}
}

// Add registers a transaction.
func (s *Store) Add(tx *types.Transaction) {
	s.byHash[tx.Hash] = tx
}

// Get returns the transaction with the given hash, or nil.
func (s *Store) Get(h types.Hash) *types.Transaction { return s.byHash[h] }

// Len returns the number of stored transactions.
func (s *Store) Len() int { return len(s.byHash) }

type account struct {
	id        types.AccountID
	homeNode  *p2p.Node
	nextNonce uint64
}

// Generator drives the workload on the simulation engine.
type Generator struct {
	cfg      Config
	engine   *sim.Engine
	rng      *rand.Rand
	issuer   *types.HashIssuer
	store    *Store
	accounts []*account
	cumW     []float64 // cumulative account weights (skew)
	entry    []*p2p.Node
	horizon  sim.Time

	filler      []*account
	fillerNext  int
	outstanding int // created minus included
}

// New creates a generator. entryNodes are the nodes through which
// transactions may enter the network; each account gets a home node
// drawn from the sender geo-distribution.
func New(
	cfg Config,
	engine *sim.Engine,
	entryNodes []*p2p.Node,
	senderDist *geo.Distribution,
	issuer *types.HashIssuer,
	store *Store,
) (*Generator, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("txgen: rate must be positive, got %f", cfg.Rate)
	}
	if cfg.NumAccounts <= 0 {
		return nil, fmt.Errorf("txgen: need at least one account")
	}
	if len(entryNodes) == 0 {
		return nil, fmt.Errorf("txgen: no entry nodes")
	}
	g := &Generator{
		cfg:    cfg,
		engine: engine,
		rng:    engine.RNG("txgen"),
		issuer: issuer,
		store:  store,
		entry:  entryNodes,
	}

	byRegion := make(map[geo.Region][]*p2p.Node)
	for _, n := range entryNodes {
		byRegion[n.Endpoint().Region] = append(byRegion[n.Endpoint().Region], n)
	}
	// Deterministic region iteration for account homing.
	regions := senderDist.Regions()
	sort.Slice(regions, func(i, j int) bool { return regions[i] < regions[j] })

	total := 0.0
	for i := 0; i < cfg.NumAccounts; i++ {
		region := senderDist.Sample(g.rng)
		candidates := byRegion[region]
		if len(candidates) == 0 {
			candidates = entryNodes // region has no nodes at this scale
		}
		acct := &account{
			id:       types.AccountID(i + 1),
			homeNode: candidates[g.rng.Intn(len(candidates))],
		}
		g.accounts = append(g.accounts, acct)
		w := 1.0
		if cfg.SkewExponent > 0 {
			w = 1.0 / math.Pow(float64(i+1), cfg.SkewExponent)
		}
		total += w
		g.cumW = append(g.cumW, total)
	}
	return g, nil
}

// Start schedules transaction arrivals up to the horizon.
func (g *Generator) Start(horizon sim.Time) {
	g.horizon = horizon
	g.scheduleNext()
	if g.cfg.MempoolFloor > 0 {
		g.initFiller()
		g.scheduleFloorCheck()
	}
}

// NoteIncluded informs the generator that the given transactions were
// included in a block. The mempool-floor controller uses it to track
// how many transactions remain outstanding; each stored transaction
// counts once, at its first inclusion (types.Transaction.Included), so
// fork blocks carrying the same transactions do not double-count
// (double-counting would make the controller over-inject filler).
// Hashes the store does not hold are not outstanding and are skipped.
func (g *Generator) NoteIncluded(hashes []types.Hash) {
	for _, h := range hashes {
		tx := g.store.Get(h)
		if tx == nil || tx.Included {
			continue
		}
		tx.Included = true
		if g.outstanding > 0 {
			g.outstanding--
		}
	}
}

func (g *Generator) initFiller() {
	n := g.cfg.FloorAccounts
	if n <= 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		g.filler = append(g.filler, &account{
			id:       types.AccountID(len(g.accounts) + i + 1),
			homeNode: g.entry[g.rng.Intn(len(g.entry))],
		})
	}
}

func (g *Generator) scheduleFloorCheck() {
	every := g.cfg.FloorCheckEvery
	if every <= 0 {
		every = 2 * time.Second
	}
	if g.engine.Now()+every > g.horizon {
		return
	}
	g.engine.After(every, func() {
		g.topUpFloor()
		g.scheduleFloorCheck()
	})
}

// topUpFloor injects filler transactions until the outstanding count
// reaches the configured floor. Filler senders submit strictly in
// nonce order through their home node, so they never contribute
// out-of-order receptions.
func (g *Generator) topUpFloor() {
	deficit := g.cfg.MempoolFloor - g.outstanding
	for i := 0; i < deficit; i++ {
		acct := g.filler[g.fillerNext%len(g.filler)]
		g.fillerNext++
		tx := &types.Transaction{
			Hash:     g.issuer.Next(),
			Sender:   acct.id,
			Nonce:    acct.nextNonce,
			GasPrice: 1 + uint64(g.rng.ExpFloat64()*g.cfg.FloorPriceMean),
			Created:  g.engine.Now(),
		}
		tx.Size = rlp.TxWireSize(tx)
		acct.nextNonce++
		g.outstanding++
		g.store.Add(tx)
		node := acct.homeNode
		spacing := time.Duration(i) * 5 * time.Millisecond
		g.engine.After(spacing, func() { node.SubmitTx(tx) })
	}
}

func (g *Generator) scheduleNext() {
	mean := time.Duration(float64(time.Second) / g.cfg.Rate)
	wait := sim.ExpDuration(g.rng, mean)
	if g.engine.Now()+wait > g.horizon {
		return
	}
	g.engine.After(wait, func() {
		g.emit()
		g.scheduleNext()
	})
}

func (g *Generator) sampleAccount() *account {
	total := g.cumW[len(g.cumW)-1]
	x := g.rng.Float64() * total
	i := sort.SearchFloat64s(g.cumW, x)
	if i >= len(g.accounts) {
		i = len(g.accounts) - 1
	}
	return g.accounts[i]
}

// emit creates one arrival event: a single transaction or a burst of
// consecutive-nonce transactions from the same sender.
func (g *Generator) emit() {
	acct := g.sampleAccount()
	n := 1
	if g.rng.Float64() < g.cfg.BurstProb {
		n = 2 + geometric(g.rng, g.cfg.BurstMeanExtra)
	}
	for i := 0; i < n; i++ {
		tx := g.makeTx(acct)
		node := acct.homeNode
		if i > 0 && g.rng.Float64() < g.cfg.MultiEntryProb {
			node = g.entry[g.rng.Intn(len(g.entry))]
		}
		var spacing time.Duration
		if i > 0 && g.cfg.BurstSpacingMax > 0 {
			spacing = time.Duration(g.rng.Int63n(int64(g.cfg.BurstSpacingMax)))
		}
		submitTo := node
		g.engine.After(spacing, func() { submitTo.SubmitTx(tx) })
	}
}

func (g *Generator) makeTx(acct *account) *types.Transaction {
	tx := &types.Transaction{
		Hash:   g.issuer.Next(),
		Sender: acct.id,
		Nonce:  acct.nextNonce,
		// Market transactions price themselves above the filler band
		// (fee-market behaviour: users bid at least the prevailing
		// floor), so they never starve behind reservoir traffic.
		GasPrice: marketPriceFloor + uint64(g.rng.ExpFloat64()*g.cfg.GasPriceMean),
		Created:  g.engine.Now(),
	}
	tx.Size = rlp.TxWireSize(tx)
	acct.nextNonce++
	g.outstanding++
	g.store.Add(tx)
	return tx
}

// marketPriceFloor separates market transactions from mempool-floor
// filler traffic (filler prices stay below it).
const marketPriceFloor = 4

// geometric samples a geometric count with the given mean (p = 1/(1+mean)).
func geometric(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	p := 1 / (1 + mean)
	n := 0
	for rng.Float64() > p {
		n++
		if n > 64 {
			break
		}
	}
	return n
}
