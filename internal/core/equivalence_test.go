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
	"ethmeasure/internal/measure"
	"ethmeasure/internal/scenario"
)

// recordHasher is a bus consumer that folds every record into a hash
// as it streams by. It is anchored on logs.RecordFingerprinter,
// the exact digest the checkpoint/restore pipeline persists, so the
// equivalence suite and production replay verification can never
// drift apart.
type recordHasher struct {
	*logs.RecordFingerprinter
}

func newRecordHasher() *recordHasher { return &recordHasher{logs.NewRecordFingerprinter()} }

// recordLog is a bus consumer that keeps every record, for the tests
// that inspect individual receptions.
type recordLog struct {
	blocks []measure.BlockRecord
	txs    []measure.TxRecord
}

func (l *recordLog) RecordBlock(r measure.BlockRecord) { l.blocks = append(l.blocks, r) }
func (l *recordLog) RecordTx(r measure.TxRecord)       { l.txs = append(l.txs, r) }

// chainFingerprint hashes the full block registry with the production
// digest (logs.ChainFingerprint).
func chainFingerprint(c *Campaign) string {
	return logs.ChainFingerprint(c.registry)
}

// equivalenceVariants are the configurations whose logs must
// re-analyse bit for bit into their live Results, and whose
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
	// run 30 minutes on seed 70. That each protocol's rules change the
	// chain is checked on a config with a high fork rate
	// (TestProtocolVariantsExerciseTheirRules): at this rate a
	// reference only the GHOST window includes is rare.
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

// TestProtocolVariantsExerciseTheirRules: each protocol's rules change
// the chain. On a config with a high fork rate (a block a second, about
// one in three blocks an uncle), where references at depth 7–10 and
// blocks with three uncles to take are common, Ethereum recognizes
// uncles, and Ethereum, bitcoin and ghost-inclusive (depth 10, cap 3)
// mine three different chains on each of four seeds. The golden
// protocol variants run the same rules at the campaign's native rate.
func TestProtocolVariantsExerciseTheirRules(t *testing.T) {
	if testing.Short() {
		t.Skip("twelve campaigns run only in the full suite")
	}
	protocols := []struct {
		name string
		spec consensus.Spec
	}{
		{"ethereum", consensus.Spec{}},
		{"bitcoin", consensus.Spec{Name: consensus.BitcoinName}},
		{"ghost-inclusive", consensus.Spec{
			Name:   consensus.GhostInclusiveName,
			Params: map[string]string{"depth": "10", "cap": "3"},
		}},
	}
	for seed := int64(1); seed <= 4; seed++ {
		seen := make(map[string]string)
		for _, p := range protocols {
			cfg := tinyConfig()
			cfg.EnableTxWorkload = false
			cfg.Mining.InterBlockTime = time.Second
			cfg.Seed = seed
			cfg.Protocol = p.spec
			campaign, err := NewCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := campaign.RunContext(context.Background(), RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if p.name == "ethereum" && res.Forks.RecognizedUncles == 0 {
				t.Fatalf("seed %d: Ethereum recognizes no uncle", seed)
			}
			fp := chainFingerprint(campaign)
			if other, dup := seen[fp]; dup {
				t.Fatalf("seed %d: %s and %s produced the same chain", seed, other, p.name)
			}
			seen[fp] = p.name
		}
	}
}

// analysisJSON serializes every analysis field of a Results bit-
// exactly (float64s marshal to their shortest round-trip decimal, so
// equal JSON means equal bits; stats.Sample marshals its full
// observation vector). Dataset and the run stats are excluded: the
// callers compare the stats themselves, less what they cannot match.
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

// TestStreamingEquivalence is the golden equivalence suite: each seed
// config variant runs once, spilling its log, and its record and chain
// fingerprints must equal the variant's line in goldenPath; AnalyzeLog
// must re-analyse the spilled log into the same Results, less what the
// log does not carry.
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
			cfg := variant.cfg
			cfg.SpillPath = filepath.Join(t.TempDir(), "spill.ethlog")
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
			if golden != nil {
				checkGolden(t, golden, variant.name, hasher.Sum(), chainFingerprint(campaign))
			}
			checkLogReanalysis(t, cfg.SpillPath, res)
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
