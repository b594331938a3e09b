// Withholding demonstrates the §III-D forensic the paper applied to
// Sparkpool's 9-block sequences: an honest network shows sequences
// arriving at mining pace, while a pool running the selfish
// block-withholding strategy (Eyal-Sirer) releases its private chain
// "all together" and is flagged by publication-timing analysis.
//
//	go run ./examples/withholding
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
		fmt.Fprintln(os.Stderr, "withholding:", err)
		os.Exit(1)
	}
}

func run() error {
	base := ethmeasure.QuickConfig()
	base.Seed = 23
	base.Duration = 90 * time.Minute
	base.EnableTxWorkload = false

	fmt.Println("=== Campaign A: all pools honest (the paper's finding) ===")
	if err := runForensic(base); err != nil {
		return err
	}

	withhold, err := ethmeasure.ParseScenario("withhold:pool=Ethermine,depth=3")
	if err != nil {
		return err
	}
	attack := base
	attack.Scenarios = []ethmeasure.ScenarioSpec{withhold}
	fmt.Println("=== Campaign B: Ethermine withholds blocks (depth 3) ===")
	return runForensic(attack)
}

func runForensic(cfg ethmeasure.Config) error {
	campaign, err := ethmeasure.NewCampaign(cfg)
	if err != nil {
		return err
	}
	results, err := campaign.RunContext(context.Background(), ethmeasure.RunOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("blocks=%d  main-chain share=%.1f%%\n",
		results.Forks.TotalBlocks, results.Forks.MainShare*100)
	for _, row := range results.Withholding.Rows {
		fmt.Printf("  %-16s sequences=%2d  burst releases=%2d  mean intra-gap=%5.1fs\n",
			row.Pool, row.Sequences, row.BurstSequences, row.MeanIntraGapSec)
	}
	if len(results.Withholding.Suspects) == 0 {
		fmt.Println("verdict: no withholding signature (sequences arrive at mining pace)")
	} else {
		fmt.Printf("verdict: WITHHOLDING SUSPECTS %v\n", results.Withholding.Suspects)
	}
	fmt.Println()
	return nil
}
