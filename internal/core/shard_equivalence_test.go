package core

import (
	"errors"
	"testing"

	"ethmeasure/internal/geo"
	"ethmeasure/internal/scenario"
	"ethmeasure/internal/sim"
)

// shardedTinyConfig is tinyConfig with the shard count left open: the
// shard-equivalence suite runs the same config at several counts and
// requires bit-identical output. tinyConfig itself pins Shards to 1 so
// the eleven streaming-equivalence variants stay anchored to the
// serial engine; this file is where the parallel path earns its keep.
func shardedTinyConfig(shards int) Config {
	cfg := tinyConfig()
	cfg.Shards = shards
	return cfg
}

// shardEquivalenceVariants are the configs the sharded engine must
// reproduce bit for bit at every shard count: the vanilla quick run,
// churn (nodes leaving mid-window), and a partition scenario (serial-
// phase topology surgery between windows).
func shardEquivalenceVariants() []struct {
	name string
	cfg  Config
} {
	withSpec := func(cfg Config, raw string) Config {
		spec, err := scenario.Parse(raw)
		if err != nil {
			panic(err)
		}
		cfg.Scenarios = append(cfg.Scenarios, spec)
		return cfg
	}

	quick := tinyConfig()

	churn := withSpec(tinyConfig(), "churn:interval=30s,downtime=1m0s")

	partitionCfg := tinyConfig()
	partitionCfg.EnableTxWorkload = false
	partitionCfg = withSpec(partitionCfg, "partition:a=EA+SEA,start=2m,dur=3m")

	return []struct {
		name string
		cfg  Config
	}{
		{"quick", quick},
		{"churn", churn},
		{"partition", partitionCfg},
	}
}

// runSharded runs one campaign at the given shard count and returns
// its record-stream hash, chain fingerprint, and analysis JSON.
func runSharded(t *testing.T, cfg Config, shards int) (string, string, map[string]string) {
	t.Helper()
	cfg.Shards = shards
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if shards > 1 && campaign.Sharded() == nil {
		t.Fatalf("shards=%d built no sharded scheduler", shards)
	}
	hasher := newRecordHasher()
	campaign.AttachRecorder(hasher)
	res, err := campaign.Run()
	if err != nil {
		t.Fatal(err)
	}
	return hasher.Sum(), chainFingerprint(campaign), analysisJSON(t, res)
}

// TestShardCountEquivalence is the determinism contract of the
// sharded engine: the same seed must produce bit-identical record
// streams, chains, and analysis results at shard counts 1, 2, 4 and 8.
// The -short suite keeps 1 vs 2; the full suite runs all counts.
func TestShardCountEquivalence(t *testing.T) {
	counts := []int{2}
	if !testing.Short() {
		counts = []int{2, 4, 8}
	}
	for _, variant := range shardEquivalenceVariants() {
		variant := variant
		t.Run(variant.name, func(t *testing.T) {
			recSerial, chainSerial, jsonSerial := runSharded(t, variant.cfg, 1)
			for _, n := range counts {
				recN, chainN, jsonN := runSharded(t, variant.cfg, n)
				if recN != recSerial {
					t.Errorf("shards=%d: record stream diverged from serial", n)
				}
				if chainN != chainSerial {
					t.Errorf("shards=%d: chain diverged from serial", n)
				}
				for name, want := range jsonSerial {
					if got := jsonN[name]; got != want {
						t.Errorf("shards=%d: %s diverged:\nserial:  %.200s\nsharded: %.200s", n, name, want, got)
					}
				}
			}
		})
	}
}

// TestShardedCancellation stops a sharded run mid-window and requires
// a clean ErrStopped, not a hang or a panic from half-advanced shard
// clocks.
func TestShardedCancellation(t *testing.T) {
	cfg := shardedTinyConfig(4)
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	campaign.Engine().Schedule(cfg.Duration/2, func() {
		campaign.StopSimulation()
	})
	err = campaign.Simulate()
	if !errors.Is(err, sim.ErrStopped) {
		t.Fatalf("Simulate after StopSimulation = %v, want ErrStopped", err)
	}
}

// TestShardedAutoResolve checks the Shards=0 default resolves to the
// serial engine on any host and that negative counts are rejected up
// front.
func TestShardedAutoResolve(t *testing.T) {
	cfg := QuickConfig()
	if got := cfg.ResolveShards(); got != 1 {
		t.Fatalf("ResolveShards() = %d, want 1", got)
	}
	cfg.Shards = 3
	if got := cfg.ResolveShards(); got != 3 {
		t.Fatalf("ResolveShards() with Shards=3 = %d, want 3", got)
	}
	cfg.Shards = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted Shards=-1")
	}
}

// TestShardPickerBalances verifies the weight-line assignment: with
// the default global distribution, every shard ends up within a few
// percent of numNodes/shards even though the largest region alone
// holds a third of the weight.
func TestShardPickerBalances(t *testing.T) {
	dist := geo.GlobalNodeDistribution()
	for _, shards := range []int{2, 4, 8} {
		pick := shardPicker(dist, shards)
		rng := sim.NewStream(42, "picker-test", 0)
		counts := make([]int, shards)
		const n = 4000
		for i := 0; i < n; i++ {
			r := dist.Sample(rng)
			s := pick(r)
			if s < 0 || s >= shards {
				t.Fatalf("pick(%v) = %d out of range", r, s)
			}
			counts[s]++
		}
		want := n / shards
		for s, c := range counts {
			if c < want*8/10 || c > want*12/10 {
				t.Errorf("shards=%d: shard %d has %d nodes, want ~%d", shards, s, c, want)
			}
		}
	}
}
