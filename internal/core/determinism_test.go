package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"
)

// fingerprint folds every observable output of a finished campaign —
// the vantage record streams (hashed on the bus by rec), the full
// block registry, and the headline analysis numbers — into one hash.
// Byte-identical fingerprints mean byte-identical runs.
func fingerprint(c *Campaign, rec *recordHasher, res *Results) string {
	h := sha256.New()

	// Records and chain go through the production digests
	// (logs.RecordFingerprinter / logs.ChainFingerprint), the same
	// ones checkpoint replay verification compares.
	fmt.Fprintf(h, "records|%s\n", rec.Sum())
	fmt.Fprintf(h, "chain|%s\n", chainFingerprint(c))

	// Key analysis numbers, printed with full float precision so any
	// numeric drift shows up.
	fmt.Fprintf(h, "prop|%d|%v|%v|%v|%v\n", res.Propagation.Blocks,
		res.Propagation.MedianMs, res.Propagation.MeanMs, res.Propagation.P95Ms, res.Propagation.P99Ms)
	fmt.Fprintf(h, "forks|%d|%d|%d|%v\n", res.Forks.TotalBlocks,
		res.Forks.MainBlocks, res.Forks.RecognizedUncles, res.Forks.MainShare)
	fmt.Fprintf(h, "empty|%d|%d|%v\n", res.Empty.MainBlocks, res.Empty.EmptyBlocks, res.Empty.EmptyShare)
	fmt.Fprintf(h, "stats|%d|%d|%d|%d\n", res.Stats.Events, res.Stats.Messages,
		res.Stats.BlocksCreated, res.Stats.TxsCreated)
	if res.Commit != nil {
		fmt.Fprintf(h, "commit|%d|%v\n", res.Commit.CommittedTxs, res.Commit.Median12Sec)
	}
	for _, name := range res.KeyMetrics().Names() {
		fmt.Fprintf(h, "metric|%s|%v\n", name, res.KeyMetrics()[name])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// determinismConfig is QuickConfig, shrunk under -short so the three
// runs this file performs stay cheap.
func determinismConfig() Config {
	cfg := QuickConfig()
	if testing.Short() {
		cfg.Duration = 8 * time.Minute
		cfg.NumNodes = 60
		cfg.OutDegree = 5
		ApplyCapacity(&cfg)
	}
	return cfg
}

// TestCampaignFingerprintDeterministic is the determinism regression
// contract: running the identical QuickConfig twice must reproduce
// every record and headline number bit for bit, and a different seed
// must not.
func TestCampaignFingerprintDeterministic(t *testing.T) {
	run := func(seed int64) string {
		cfg := determinismConfig()
		cfg.Seed = seed
		campaign, err := NewCampaign(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hasher := newRecordHasher()
		campaign.bus.Attach(hasher)
		res, err := campaign.RunContext(context.Background(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(campaign, hasher, res)
	}

	a := run(1)
	b := run(1)
	if a != b {
		t.Fatalf("identical configs produced different fingerprints:\n%s\n%s", a, b)
	}
	c := run(2)
	if a == c {
		t.Fatalf("different seeds produced identical fingerprint %s", a)
	}
}
