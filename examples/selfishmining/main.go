// Selfishmining reproduces the paper's §III-C3/§III-C5/§V study of
// selfish pool behaviours — empty blocks and one-miner forks — and
// quantifies the paper's warning: what happens to the platform if these
// behaviours spread. It runs the same campaign twice, once with the
// measured April-2019 behaviour rates and once with every pool mining
// empty blocks and sibling forks aggressively.
//
//	go run ./examples/selfishmining
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"ethmeasure"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "selfishmining:", err)
		os.Exit(1)
	}
}

type outcome struct {
	emptyShare   float64
	oneMinerEvts int
	mainShare    float64
	median12     float64
	committed    int
}

func run() error {
	base := ethmeasure.QuickConfig()
	base.Seed = 11
	base.Duration = 90 * time.Minute

	fmt.Println("=== Campaign A: paper-measured behaviour rates ===")
	honest, err := measure(base)
	if err != nil {
		return err
	}

	greedy := base
	greedy.Pools = ethmeasure.PaperPools()
	for i := range greedy.Pools {
		// The paper's dystopia: empty blocks and uncle farming pay off
		// and every pool adopts them aggressively.
		greedy.Pools[i].EmptyRate = 0.25
		greedy.Pools[i].SiblingRate = 0.10
	}
	fmt.Println("=== Campaign B: selfish behaviours adopted network-wide ===")
	selfish, err := measure(greedy)
	if err != nil {
		return err
	}

	fmt.Println("=== Impact of generalized selfish behaviour ===")
	fmt.Printf("%-28s %12s %12s\n", "metric", "measured", "selfish")
	fmt.Printf("%-28s %11.2f%% %11.2f%%\n", "empty main blocks", honest.emptyShare*100, selfish.emptyShare*100)
	fmt.Printf("%-28s %12d %12d\n", "one-miner fork events", honest.oneMinerEvts, selfish.oneMinerEvts)
	fmt.Printf("%-28s %11.2f%% %11.2f%%\n", "blocks on main chain", honest.mainShare*100, selfish.mainShare*100)
	fmt.Printf("%-28s %11.0fs %11.0fs\n", "median 12-conf commit", honest.median12, selfish.median12)
	fmt.Println()
	fmt.Println("(paper §V: empty blocks and one-miner forks waste mining power and")
	fmt.Println(" network capacity; ~1% of the platform's resources already go to")
	fmt.Println(" mining forks, and the incentive distortion invites escalation)")
	return nil
}

func measure(cfg ethmeasure.Config) (outcome, error) {
	campaign, err := ethmeasure.NewCampaign(cfg)
	if err != nil {
		return outcome{}, err
	}
	results, err := campaign.RunContext(context.Background(), ethmeasure.RunOptions{})
	if err != nil {
		return outcome{}, err
	}
	o := outcome{
		emptyShare:   results.Empty.EmptyShare,
		oneMinerEvts: results.OneMiner.Events,
		mainShare:    results.Forks.MainShare,
		committed:    results.Commit.CommittedTxs,
		median12:     results.Commit.Median12Sec,
	}
	fmt.Printf("blocks=%d (main %.1f%%)  empty=%.2f%%  one-miner events=%d  committed txs=%d\n\n",
		results.Forks.TotalBlocks, o.mainShare*100, o.emptyShare*100, o.oneMinerEvts, o.committed)
	return o, nil
}
