package core

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"

	"ethmeasure/internal/consensus"
	"ethmeasure/internal/logs"
	"ethmeasure/internal/scenario"
)

// recordHasher is a bus consumer that folds every record into a hash
// as it streams by — the bounded-memory equivalent of fingerprinting
// retained record slices. It is anchored on logs.RecordFingerprinter,
// the exact digest the checkpoint/restore pipeline persists, so the
// equivalence suite and production replay verification can never
// drift apart.
type recordHasher struct {
	*logs.RecordFingerprinter
}

func newRecordHasher() *recordHasher { return &recordHasher{logs.NewRecordFingerprinter()} }

// chainFingerprint hashes the full block registry with the production
// digest (logs.ChainFingerprint).
func chainFingerprint(c *Campaign) string {
	return logs.ChainFingerprint(c.registry)
}

// equivalenceVariants are the five seed configurations the streaming
// pipeline must reproduce bit for bit against the batch path.
func equivalenceVariants() []struct {
	name string
	cfg  Config
} {
	addScenario := func(cfg Config, specs ...string) Config {
		for _, raw := range specs {
			spec, err := scenario.Parse(raw)
			if err != nil {
				panic(err)
			}
			cfg.Scenarios = append(cfg.Scenarios, spec)
		}
		return cfg
	}

	quick := tinyConfig()

	churn := addScenario(tinyConfig(), "churn:interval=30s,downtime=1m0s")

	discovery := tinyConfig()
	discovery.UseDiscovery = true

	announceOnly := tinyConfig()
	announceOnly.P2P.SqrtPush = false

	noTx := tinyConfig()
	noTx.EnableTxWorkload = false

	// Scenario variants: the withholding and churn plugins plus every
	// new scenario must stream bit-identically too, not just vanilla
	// configs. Propagation-only keeps them cheap.
	withhold := tinyConfig()
	withhold.EnableTxWorkload = false
	withhold = addScenario(withhold, "withhold:pool=Ethermine,depth=3")

	partitionCfg := tinyConfig()
	partitionCfg.EnableTxWorkload = false
	partitionCfg = addScenario(partitionCfg, "partition:a=EA+SEA,start=2m,dur=3m")
	relayCfg := tinyConfig()
	relayCfg.EnableTxWorkload = false
	relayCfg = addScenario(relayCfg, "relayoverlay")
	eclipseCfg := tinyConfig()
	eclipseCfg.EnableTxWorkload = false
	eclipseCfg = addScenario(eclipseCfg, "eclipse", "bandwidth:regions=EA,start=2m,dur=2m", "churnburst:count=5,start=5m")

	// Protocol variants: bounded-memory mode must be proven
	// bit-identical off the Ethereum consensus path too. The bitcoin
	// variant exercises the no-reference rules (zero uncles, discarding
	// withholder); ghost-inclusive the deeper reference window.
	bitcoinCfg := tinyConfig()
	bitcoinCfg.EnableTxWorkload = false
	bitcoinCfg.Protocol = consensus.Spec{Name: consensus.BitcoinName}
	ghostCfg := tinyConfig()
	ghostCfg.EnableTxWorkload = false
	ghostCfg.Protocol = consensus.Spec{
		Name:   consensus.GhostInclusiveName,
		Params: map[string]string{"depth": "10", "cap": "3"},
	}

	variants := []struct {
		name string
		cfg  Config
	}{
		{"quick", quick},
		{"churn", churn},
		{"discovery", discovery},
		{"announce-only", announceOnly},
		{"no-tx", noTx},
		{"withhold", withhold},
		{"bitcoin", bitcoinCfg},
	}
	if !testing.Short() {
		// The new-scenario and ghost variants ride only in the full
		// suite; the fast (-short -race) suite keeps the historical five
		// plus the withholding plugin and the bitcoin protocol.
		variants = append(variants, []struct {
			name string
			cfg  Config
		}{
			{"partition", partitionCfg},
			{"relayoverlay", relayCfg},
			{"eclipse-bw-burst", eclipseCfg},
			{"ghost-inclusive", ghostCfg},
		}...)
	}
	return variants
}

// analysisJSON serializes every analysis field of a Results bit-
// exactly (float64s marshal to their shortest round-trip decimal, so
// equal JSON means equal bits; stats.Sample marshals its full
// observation vector). Dataset and wall-clock stats are excluded: the
// bounded run intentionally retains no records.
func analysisJSON(t *testing.T, res *Results) map[string]string {
	t.Helper()
	out := make(map[string]string)
	v := reflect.ValueOf(*res)
	tp := reflect.TypeOf(*res)
	for i := 0; i < tp.NumField(); i++ {
		name := tp.Field(i).Name
		if name == "Dataset" || name == "Stats" {
			continue
		}
		data, err := json.Marshal(v.Field(i).Interface())
		if err != nil {
			t.Fatalf("marshal %s: %v", name, err)
		}
		out[name] = string(data)
	}
	return out
}

// TestStreamingEquivalence is the golden equivalence suite: for each
// seed config variant, a bounded-memory (streaming) campaign must
// produce bit-identical analysis results, KeyMetrics and record/chain
// fingerprints to the record-retaining (batch) campaign.
func TestStreamingEquivalence(t *testing.T) {
	for _, variant := range equivalenceVariants() {
		variant := variant
		t.Run(variant.name, func(t *testing.T) {
			run := func(retain bool) (*Results, string, string, *Campaign) {
				cfg := variant.cfg
				cfg.RetainRecords = retain
				campaign, err := NewCampaign(cfg)
				if err != nil {
					t.Fatal(err)
				}
				hasher := newRecordHasher()
				campaign.AttachRecorder(hasher)
				res, err := campaign.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res, hasher.Sum(), chainFingerprint(campaign), campaign
			}

			resBatch, recBatch, chainBatch, _ := run(true)
			resStream, recStream, chainStream, streamCampaign := run(false)

			// The raw record streams and the chain are the same runs.
			if recBatch != recStream {
				t.Fatalf("record streams diverged:\n%s\n%s", recBatch, recStream)
			}
			if chainBatch != chainStream {
				t.Fatalf("chains diverged")
			}

			// Every analysis result, bit for bit.
			jsonBatch := analysisJSON(t, resBatch)
			jsonStream := analysisJSON(t, resStream)
			for name, batch := range jsonBatch {
				if stream := jsonStream[name]; stream != batch {
					t.Errorf("%s diverged:\nbatch:  %.200s\nstream: %.200s", name, batch, stream)
				}
			}

			// KeyMetrics, exact float equality.
			if !reflect.DeepEqual(resBatch.KeyMetrics(), resStream.KeyMetrics()) {
				t.Errorf("KeyMetrics diverged:\n%v\n%v", resBatch.KeyMetrics(), resStream.KeyMetrics())
			}

			// Run bookkeeping (minus wall time) must agree too.
			sa, sb := resBatch.Stats, resStream.Stats
			sa.WallDuration, sb.WallDuration = 0, 0
			if sa != sb {
				t.Errorf("stats diverged: %+v vs %+v", sa, sb)
			}

			// The memory contract of bounded mode.
			if resStream.Dataset.Blocks != nil || resStream.Dataset.Txs != nil {
				t.Error("bounded-memory run retained records")
			}
			if streamCampaign.Recorder() != nil {
				t.Error("bounded-memory run kept a MemoryRecorder")
			}
			if err := streamCampaign.WriteLogs(filepath.Join(t.TempDir(), "x.jsonl")); err == nil {
				t.Error("WriteLogs must fail without retained records")
			}
			if resBatch.Dataset.Blocks == nil {
				t.Error("batch run lost its records")
			}
		})
	}
}

// TestReleaseNetworkKeepsAnalysis verifies the phase split: dropping
// the simulation graph between Simulate and Analyze changes nothing
// about the results, and the post-release accessors behave as
// documented.
func TestReleaseNetworkKeepsAnalysis(t *testing.T) {
	cfg := tinyConfig()

	full, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resFull, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}

	released, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	released.ReleaseNetwork() // before Simulate: must be a no-op
	if released.Engine() == nil {
		t.Fatal("pre-simulation ReleaseNetwork dropped the engine")
	}
	if err := released.Simulate(); err != nil {
		t.Fatal(err)
	}
	released.ReleaseNetwork()
	if released.Engine() != nil || released.Miner() != nil {
		t.Error("network not released")
	}
	resReleased, err := released.Analyze()
	if err != nil {
		t.Fatal(err)
	}

	jsonFull := analysisJSON(t, resFull)
	jsonReleased := analysisJSON(t, resReleased)
	for name, want := range jsonFull {
		if got := jsonReleased[name]; got != want {
			t.Errorf("%s diverged after ReleaseNetwork", name)
		}
	}
	sa, sb := resFull.Stats, resReleased.Stats
	sa.WallDuration, sb.WallDuration = 0, 0
	if sa != sb {
		t.Errorf("stats diverged: %+v vs %+v", sa, sb)
	}
	// WriteLogs still works from the retained records + snapshots.
	if err := released.WriteLogs(filepath.Join(t.TempDir(), "released.jsonl")); err != nil {
		t.Fatal(err)
	}
}

// TestSpillMatchesWriteLogs runs the quick variant twice — batch with
// WriteLogs, bounded with SpillPath — and requires byte-compatible
// analysis results when each file is re-loaded.
func TestSpillMatchesWriteLogs(t *testing.T) {
	dir := t.TempDir()

	cfg := tinyConfig()
	batch, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batch.Run(); err != nil {
		t.Fatal(err)
	}
	batchPath := filepath.Join(dir, "batch.jsonl")
	if err := batch.WriteLogs(batchPath); err != nil {
		t.Fatal(err)
	}

	cfg2 := tinyConfig()
	cfg2.RetainRecords = false
	cfg2.SpillPath = filepath.Join(dir, "spill.jsonl")
	bounded, err := NewCampaign(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bounded.Run(); err != nil {
		t.Fatal(err)
	}

	load := func(path string) *logs.Campaign {
		c, err := logs.ReadCampaignFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return c
	}
	a, b := load(batchPath), load(cfg2.SpillPath)
	if len(a.Blocks) != len(b.Blocks) || len(a.Txs) != len(b.Txs) {
		t.Fatalf("record counts differ: %d/%d vs %d/%d", len(a.Blocks), len(a.Txs), len(b.Blocks), len(b.Txs))
	}
	for i := range a.Blocks {
		if !reflect.DeepEqual(a.Blocks[i], b.Blocks[i]) {
			t.Fatalf("block record %d differs: %+v vs %+v", i, a.Blocks[i], b.Blocks[i])
		}
	}
	for i := range a.Txs {
		if a.Txs[i] != b.Txs[i] {
			t.Fatalf("tx record %d differs", i)
		}
	}
	if !reflect.DeepEqual(a.Meta, b.Meta) {
		t.Fatalf("meta differs: %+v vs %+v", a.Meta, b.Meta)
	}
	if a.Chain.Len() != b.Chain.Len() {
		t.Fatalf("chain dumps differ: %d vs %d blocks", a.Chain.Len(), b.Chain.Len())
	}
}
