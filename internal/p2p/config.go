package p2p

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"ethmeasure/internal/sim"
)

// Config holds the protocol timing and relay parameters. Defaults
// reproduce Geth 1.8.x behaviour (the client the paper instrumented).
type Config struct {
	// SqrtPush enables Geth's direct propagation of full blocks to
	// ceil(sqrt(peers)) peers before import. Disabling it yields a pure
	// announce-and-fetch gossip (ablation for Table II).
	SqrtPush bool

	// AnnounceAfterImport enables hash announcements to all remaining
	// peers once a block has been imported.
	AnnounceAfterImport bool

	// ArriveTimeout is how long the fetcher waits after a hash
	// announcement for the full block to arrive by direct push before
	// requesting it (Geth: 500 ms).
	ArriveTimeout time.Duration

	// GatherSlack trims the fetch wait (Geth: 100 ms).
	GatherSlack time.Duration

	// HeaderCheckMean is the mean duration of the pre-relay header
	// sanity check (block is pushed onward after only this check).
	HeaderCheckMean time.Duration

	// ImportBase and ImportPerTx model full validation + state
	// execution time: base + perTx·len(txs), with multiplicative jitter.
	ImportBase  time.Duration
	ImportPerTx time.Duration

	// ImportJitter is the max fractional jitter on processing times.
	ImportJitter float64

	// KnownBlocksPerPeer is how many recent blocks a node remembers
	// per-peer knowledge for: which of its peers are known to have
	// each of its last KnownBlocksPerPeer blocks, so none is re-sent to
	// them. Geth keeps 1024 per peer; the model defaults to 256, ample
	// since a node looks a block up only within seconds of first
	// hearing of it. Values ≤ 0 behave as 1.
	KnownBlocksPerPeer int
}

// DefaultConfig returns the Geth-1.8-calibrated protocol parameters.
func DefaultConfig() Config {
	return Config{
		SqrtPush:            true,
		AnnounceAfterImport: true,
		ArriveTimeout:       500 * time.Millisecond,
		GatherSlack:         100 * time.Millisecond,
		HeaderCheckMean:     30 * time.Millisecond,
		ImportBase:          450 * time.Millisecond,
		ImportPerTx:         1 * time.Millisecond,
		ImportJitter:        0.5,
		KnownBlocksPerPeer:  256,
	}
}

// Validate rejects negative timings and a negative or non-finite
// ImportJitter: a negative GatherSlack would panic inside the fetcher's
// jitter draw at the first announcement, and negative delays have no
// protocol meaning.
func (c *Config) Validate() error {
	for _, f := range []struct {
		name string
		d    time.Duration
	}{
		{"ArriveTimeout", c.ArriveTimeout},
		{"GatherSlack", c.GatherSlack},
		{"HeaderCheckMean", c.HeaderCheckMean},
		{"ImportBase", c.ImportBase},
		{"ImportPerTx", c.ImportPerTx},
	} {
		if f.d < 0 {
			return fmt.Errorf("p2p: %s must be non-negative, got %v", f.name, f.d)
		}
	}
	if math.IsNaN(c.ImportJitter) || math.IsInf(c.ImportJitter, 0) || c.ImportJitter < 0 {
		return fmt.Errorf("p2p: ImportJitter must be a finite non-negative number, got %v", c.ImportJitter)
	}
	return nil
}

// headerCheckDelay samples the pre-relay header check duration.
func (c *Config) headerCheckDelay(rng *rand.Rand) time.Duration {
	return sim.Jittered(rng, c.HeaderCheckMean, c.ImportJitter)
}

// importDelay samples the full import duration for a block with nTxs
// transactions.
func (c *Config) importDelay(rng *rand.Rand, nTxs int) time.Duration {
	base := c.ImportBase + time.Duration(nTxs)*c.ImportPerTx
	return sim.Jittered(rng, base, c.ImportJitter)
}

// fetchDelay samples the fetcher's wait between an announcement for an
// unknown block and the explicit request for it.
func (c *Config) fetchDelay(rng *rand.Rand) time.Duration {
	d := c.ArriveTimeout - c.GatherSlack
	if d < 0 {
		d = 0
	}
	// Small spread so fetches from many nodes do not synchronize.
	return d + time.Duration(rng.Int63n(int64(c.GatherSlack)+1))
}
