package core

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

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

// equivalenceVariants are the configurations the streaming pipeline
// must reproduce bit for bit against the batch path, and whose
// fingerprints goldenPath pins: twelve in the full suite, seven under
// -short.
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
	// With the tx workload on, the withholding pool's txpool follows
	// its private tip: this variant pins which transactions its private
	// blocks carry.
	withholdTx := addScenario(tinyConfig(), "withhold:pool=Ethermine,depth=3")

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
	// withholder); ghost-inclusive the deeper reference window. Both
	// run 30 minutes on seed 70, where Ethereum recognizes uncles and
	// the GHOST window includes a reference Ethereum's cannot, so each
	// protocol's rules change the chain
	// (TestProtocolVariantsExerciseTheirRules). Such a reference is
	// rare: a change to the model's draws may need a new seed.
	protocolCfg := func(spec consensus.Spec) Config {
		cfg := tinyConfig()
		cfg.EnableTxWorkload = false
		cfg.Duration = 30 * time.Minute
		cfg.Seed = 70
		cfg.Protocol = spec
		return cfg
	}
	bitcoinCfg := protocolCfg(consensus.Spec{Name: consensus.BitcoinName})
	ghostCfg := protocolCfg(consensus.Spec{
		Name:   consensus.GhostInclusiveName,
		Params: map[string]string{"depth": "10", "cap": "3"},
	})

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
			{"withhold-tx", withholdTx},
		}...)
	}
	return variants
}

// TestProtocolVariantsExerciseTheirRules guards the protocol variants
// of the equivalence suite against configs too small for the rules to
// matter: the same campaign under Ethereum must recognize uncles, and
// Ethereum, bitcoin and ghost-inclusive must each produce a different
// chain. Otherwise the variants re-prove the Ethereum run.
func TestProtocolVariantsExerciseTheirRules(t *testing.T) {
	if testing.Short() {
		t.Skip("the ghost-inclusive variant runs only in the full suite")
	}
	byName := make(map[string]Config)
	for _, v := range equivalenceVariants() {
		byName[v.name] = v.cfg
	}
	eth := byName["bitcoin"]
	eth.Protocol = consensus.Spec{}
	ghostBase := byName["ghost-inclusive"]
	ghostBase.Protocol = consensus.Spec{}
	if !reflect.DeepEqual(eth, ghostBase) {
		t.Fatal("bitcoin and ghost-inclusive variants differ in more than the protocol")
	}
	seen := make(map[string]string)
	for _, run := range []struct {
		name string
		cfg  Config
	}{{"ethereum", eth}, {"bitcoin", byName["bitcoin"]}, {"ghost-inclusive", byName["ghost-inclusive"]}} {
		campaign, err := NewCampaign(run.cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := campaign.RunContext(context.Background(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if run.name == "ethereum" && res.Forks.RecognizedUncles == 0 {
			t.Fatal("the protocol variants' campaign recognizes no uncle under Ethereum")
		}
		fp := chainFingerprint(campaign)
		if other, dup := seen[fp]; dup {
			t.Fatalf("%s and %s produced the same chain", other, run.name)
		}
		seen[fp] = run.name
	}
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
// fingerprints to the record-retaining (batch) campaign, and those
// fingerprints must equal the variant's line in goldenPath. The
// streaming run also spills its log, and AnalyzeLog must re-analyse
// that log into the same Results, less what the log does not carry.
func TestStreamingEquivalence(t *testing.T) {
	var golden map[string]string
	if goldenPlatform() {
		golden = goldenFingerprints(t)
	} else {
		t.Logf("not comparing against %s: its fingerprints are linux/amd64's, this is %s/%s", goldenPath, runtime.GOOS, runtime.GOARCH)
	}
	variants := equivalenceVariants()
	// golden holds one line per variant and its REV line.
	if golden != nil && !testing.Short() && len(golden)-1 != len(variants) {
		t.Errorf("%s holds %d variants, the suite runs %d; rewrite it with FINGERPRINT_DUMP=1", goldenPath, len(golden)-1, len(variants))
	}
	for _, variant := range variants {
		variant := variant
		t.Run(variant.name, func(t *testing.T) {
			spillPath := filepath.Join(t.TempDir(), "spill.ethlog")
			run := func(retain bool) (*Results, string, string) {
				cfg := variant.cfg
				cfg.RetainRecords = retain
				if !retain {
					cfg.SpillPath = spillPath
				}
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
				return res, hasher.Sum(), chainFingerprint(campaign)
			}

			resBatch, recBatch, chainBatch := run(true)
			resStream, recStream, chainStream := run(false)

			// The raw record streams and the chain are the same runs.
			if recBatch != recStream {
				t.Fatalf("record streams diverged:\n%s\n%s", recBatch, recStream)
			}
			if chainBatch != chainStream {
				t.Fatalf("chains diverged")
			}
			if golden != nil {
				checkGolden(t, golden, variant.name, recBatch, chainBatch)
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
			if resBatch.Dataset.Blocks == nil {
				t.Error("batch run lost its records")
			}

			checkLogReanalysis(t, spillPath, resStream)
		})
	}
}

// checkLogReanalysis re-analyses the spill a live campaign wrote and
// holds the result to the live Results: every analysis bit for bit,
// except the fee market (gas prices are not logged) and the scenario
// metrics (only the tags are); KeyMetrics likewise, less the
// scenario_* keys; and the run bookkeeping the log determines.
func checkLogReanalysis(t *testing.T, spillPath string, live *Results) {
	t.Helper()
	f, err := os.Open(spillPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	res, err := AnalyzeLog(f)
	if err != nil {
		t.Fatal(err)
	}

	if res.FeeMarket != nil {
		t.Error("log re-analysis priced transactions it has no gas prices for")
	}
	var liveTags, logTags []string
	if live.Scenarios != nil {
		liveTags = live.Scenarios.Tags
	}
	if res.Scenarios != nil {
		logTags = res.Scenarios.Tags
	}
	if !reflect.DeepEqual(liveTags, logTags) {
		t.Errorf("scenario tags: log %v, live %v", logTags, liveTags)
	}
	jsonLive := analysisJSON(t, live)
	jsonLog := analysisJSON(t, res)
	for name, want := range jsonLive {
		if name == "FeeMarket" || name == "Scenarios" {
			continue
		}
		if got := jsonLog[name]; got != want {
			t.Errorf("log re-analysis: %s diverged:\nlive: %.200s\nlog:  %.200s", name, want, got)
		}
	}

	wantMetrics := live.KeyMetrics()
	for name := range wantMetrics {
		if strings.HasPrefix(name, "scenario_") {
			delete(wantMetrics, name)
		}
	}
	if got := res.KeyMetrics(); !reflect.DeepEqual(got, wantMetrics) {
		t.Errorf("log re-analysis: KeyMetrics diverged:\nlive: %v\nlog:  %v", wantMetrics, got)
	}

	// Engine counters and the tx store are not logged.
	want := live.Stats
	want.WallDuration, want.Events, want.Messages, want.TxsCreated = 0, 0, 0, 0
	if res.Stats != want {
		t.Errorf("log re-analysis: stats %+v, want %+v", res.Stats, want)
	}
}

// TestReleaseNetworkKeepsAnalysis verifies the phase split: dropping
// the simulation graph between SimulateContext and Analyze changes
// nothing about the results, and the post-release accessors behave as
// documented.
func TestReleaseNetworkKeepsAnalysis(t *testing.T) {
	cfg := tinyConfig()

	full, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resFull, err := full.RunContext(context.Background(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	released, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	released.ReleaseNetwork() // before SimulateContext: must be a no-op
	if released.Engine() == nil {
		t.Fatal("pre-simulation ReleaseNetwork dropped the engine")
	}
	if err := released.SimulateContext(context.Background(), RunOptions{}); err != nil {
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
}
