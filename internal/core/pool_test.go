package core

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"ethmeasure/internal/consensus"
)

// poolVariants is the warm-run extension of the equivalence suite: a
// sequence of deliberately differing configs fed through ONE pool, so
// every recycled structure is exercised across node-count shrink and
// grow and a protocol switch between consecutive runs.
func poolVariants() []struct {
	name string
	cfg  Config
} {
	quick := tinyConfig()

	grow := tinyConfig()
	grow.NumNodes = 90
	grow.Seed = 7

	shrink := tinyConfig()
	shrink.NumNodes = 40
	shrink.OutDegree = 4
	shrink.Seed = 11

	bitcoin := tinyConfig()
	bitcoin.EnableTxWorkload = false
	bitcoin.Protocol = consensus.Spec{Name: consensus.BitcoinName}

	serialAgain := tinyConfig()
	serialAgain.Seed = 5

	return []struct {
		name string
		cfg  Config
	}{
		{"quick", quick},
		{"grow", grow},
		{"shrink", shrink},
		{"bitcoin", bitcoin},
		{"serial-again", serialAgain},
	}
}

// TestPoolWarmEquivalence proves warm-run pooling is invisible: each
// variant runs cold (fresh NewCampaign) and warm (through one shared
// Pool, which recycles the previous variant's state), and the record
// stream, chain, every analysis result and the key metrics must match
// bit for bit. The variant sequence changes node count and protocol
// between consecutive runs, so the pool's reset paths are
// exercised under shape changes, not just same-config repeats.
func TestPoolWarmEquivalence(t *testing.T) {
	pool := NewPool()
	for _, variant := range poolVariants() {
		variant := variant
		t.Run(variant.name, func(t *testing.T) {
			cfg := variant.cfg

			runOne := func(c *Campaign, err error) (*Results, string, string) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				hasher := newRecordHasher()
				c.AttachRecorder(hasher)
				res, err := c.Run()
				if err != nil {
					t.Fatal(err)
				}
				return res, hasher.Sum(), chainFingerprint(c)
			}

			resCold, recCold, chainCold := runOne(NewCampaign(cfg))

			warm, err := pool.NewCampaign(cfg)
			resWarm, recWarm, chainWarm := runOne(warm, err)

			if recCold != recWarm {
				t.Fatalf("record streams diverged:\ncold: %s\nwarm: %s", recCold, recWarm)
			}
			if chainCold != chainWarm {
				t.Fatalf("chains diverged")
			}
			jsonCold := analysisJSON(t, resCold)
			jsonWarm := analysisJSON(t, resWarm)
			for name, cold := range jsonCold {
				if w := jsonWarm[name]; w != cold {
					t.Errorf("%s diverged:\ncold: %.200s\nwarm: %.200s", name, cold, w)
				}
			}
			if !reflect.DeepEqual(resCold.KeyMetrics(), resWarm.KeyMetrics()) {
				t.Errorf("KeyMetrics diverged:\n%v\n%v", resCold.KeyMetrics(), resWarm.KeyMetrics())
			}
			sa, sb := resCold.Stats, resWarm.Stats
			sa.WallDuration, sb.WallDuration = 0, 0
			if sa != sb {
				t.Errorf("stats diverged: %+v vs %+v", sa, sb)
			}

			// Everything is extracted; feed the warm state to the next
			// variant.
			pool.Recycle(warm)
			if warm.Engine() != nil || warm.Collector() != nil {
				t.Error("Recycle left simulation state on the campaign")
			}
		})
	}
	st := pool.Stats()
	if want := uint64(len(poolVariants())); st.Recycled != want {
		t.Errorf("pool recycled %d campaigns, want %d", st.Recycled, want)
	}
	if st.NodesReused == 0 || st.EdgesReused == 0 {
		t.Errorf("pooling never engaged: %+v", st)
	}
}

// TestPoolWarmAllocs is the allocation regression: the second (warm)
// build of a pooled campaign must reuse the previous run's engine and
// network outright and allocate far less than a cold build — the slab,
// endpoint table, node structs and edge caches all come back from the
// pool. The 50% bound is deliberately loose (the observed ratio is far
// smaller); it exists to catch the pooling path silently degrading to
// cold construction.
func TestPoolWarmAllocs(t *testing.T) {
	cfg := tinyConfig()
	cfg.Duration = 5 * time.Minute

	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}

	pool := NewPool()
	first, err := pool.NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	firstEngine := first.Engine()
	firstNetwork := first.network
	if _, err := first.Run(); err != nil {
		t.Fatal(err)
	}
	pool.Recycle(first)

	runtime.GC()
	before := mallocs()
	warm, err := pool.NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warmAllocs := mallocs() - before

	if warm.Engine() != firstEngine {
		t.Error("warm build did not reuse the pooled engine")
	}
	if warm.network != firstNetwork {
		t.Error("warm build did not reuse the pooled network")
	}

	st := pool.Stats()
	if st.NodesReused == 0 || st.EdgesReused == 0 {
		t.Fatalf("warm build did not draw on the freelists: %+v", st)
	}

	runtime.GC()
	before = mallocs()
	cold, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldAllocs := mallocs() - before
	_ = cold

	if warmAllocs*2 > coldAllocs {
		t.Errorf("warm build allocated %d objects, cold %d; want warm < cold/2", warmAllocs, coldAllocs)
	}

	// The warm campaign must still run; its slab was inherited from the
	// first run, so the simulation phase starts with warm storage.
	if _, err := warm.Run(); err != nil {
		t.Fatal(err)
	}
	pool.Recycle(warm)
}

// TestPoolRecycleGuards pins the defensive edges of the recycle
// contract: double recycle, foreign-pool recycle and recycling after
// ReleaseNetwork are all no-ops.
func TestPoolRecycleGuards(t *testing.T) {
	cfg := tinyConfig()
	cfg.Duration = 2 * time.Minute

	pool := NewPool()
	c, err := pool.NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	pool.Recycle(c)
	pool.Recycle(c) // double recycle: no-op
	if got := pool.Stats().Recycled; got != 1 {
		t.Errorf("double recycle counted: %d", got)
	}

	other := NewPool()
	c2, err := other.NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pool.Recycle(c2) // foreign pool: no-op
	if c2.Engine() == nil {
		t.Error("foreign-pool recycle stripped the campaign")
	}

	c3, err := other.NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Run(); err != nil {
		t.Fatal(err)
	}
	c3.ReleaseNetwork()
	other.Recycle(c3) // released campaigns have nothing to give
	if got := other.Stats().Recycled; got != 0 {
		t.Errorf("released campaign recycled: %d", got)
	}
}
