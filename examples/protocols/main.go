// Command protocols contrasts consensus rule sets on the same
// simulated network: the identical topology, latency model and mining
// population run under Ethereum's uncle-paying rules, Bitcoin-style
// longest-chain rules, and an inclusive-GHOST variant with a deep
// reference window.
//
//	go run ./examples/protocols
//
// Forks originate in propagation latency, but the protocols both
// resolve and shape them differently: Ethereum recycles most fork
// losers as paid uncles, Bitcoin wastes every one of them (and its
// miners keep publishing race siblings only while the fork is live, so
// its fork profile differs too), and ghost-inclusive recycles even
// deeper stragglers. The waste and uncle-share lines below are the
// protocol-conditional KeyMetrics a cross-protocol ethsweep
// aggregates.
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
		fmt.Fprintln(os.Stderr, "protocols:", err)
		os.Exit(1)
	}
}

func run() error {
	protocols := []string{"ethereum", "bitcoin", "ghost-inclusive:depth=10,cap=3"}

	fmt.Println("protocol comparison: one network, three consensus rule sets")
	fmt.Println()
	fmt.Printf("%-32s %10s %12s %12s %12s\n", "protocol", "fork rate", "uncle share", "wasted", "total coin")
	for _, raw := range protocols {
		spec, err := ethmeasure.ParseProtocol(raw)
		if err != nil {
			return err
		}
		cfg := ethmeasure.QuickConfig()
		cfg.Duration = 40 * time.Minute
		cfg.EnableTxWorkload = false
		cfg.Protocol = spec

		campaign, err := ethmeasure.NewCampaign(cfg)
		if err != nil {
			return err
		}
		res, err := campaign.RunContext(context.Background(), ethmeasure.RunOptions{})
		if err != nil {
			return err
		}

		forks := res.Forks
		rewards := res.Rewards
		uncleShare := "n/a"
		if rewards.References {
			uncleShare = fmt.Sprintf("%.2f%%", 100*rewards.UncleETH/rewards.TotalETH)
		}
		fmt.Printf("%-32s %9.2f%% %12s %11.2f%% %12.1f\n",
			res.Protocol,
			100*(1-forks.MainShare),
			uncleShare,
			100*rewards.WastedShare,
			rewards.TotalETH)
	}
	fmt.Println()
	fmt.Println("sweep the axis with cross-seed confidence intervals:")
	fmt.Println("  ethsweep -preset quick -seeds 8 -protocols \"ethereum;bitcoin\"")
	return nil
}
