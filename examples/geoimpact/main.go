// Geoimpact reproduces the paper's §III-B study: the influence of
// geographic position and mining-pool gateway placement on block
// first-observation, and shows — by re-running the same campaign with
// geographically uniform gateways — that the Eastern-Asia advantage of
// Figure 2 is caused by gateway placement, not by the protocol.
//
//	go run ./examples/geoimpact
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
		fmt.Fprintln(os.Stderr, "geoimpact:", err)
		os.Exit(1)
	}
}

func run() error {
	base := ethmeasure.QuickConfig()
	base.Seed = 7
	base.Duration = time.Hour
	base.EnableTxWorkload = false // geography needs only blocks

	fmt.Println("=== Campaign A: paper gateway placement (April 2019) ===")
	paperShares, err := firstObservationShares(base)
	if err != nil {
		return err
	}

	uniform := base
	uniform.Pools = ethmeasure.UniformGatewayPools()
	fmt.Println("=== Campaign B: gateways spread uniformly across regions ===")
	uniformShares, err := firstObservationShares(uniform)
	if err != nil {
		return err
	}

	fmt.Println("=== Gateway-placement effect on first observations ===")
	fmt.Printf("%-16s %12s %12s\n", "Vantage", "paper", "uniform")
	for _, v := range []string{"NA", "EA", "WE", "CE"} {
		fmt.Printf("%-16s %11.1f%% %11.1f%%\n", v, paperShares[v]*100, uniformShares[v]*100)
	}
	fmt.Println()
	advPaper := paperShares["EA"] / paperShares["NA"]
	advUniform := uniformShares["EA"] / uniformShares["NA"]
	fmt.Printf("EA/NA advantage: %.1fx with paper gateways vs %.1fx with uniform gateways\n",
		advPaper, advUniform)
	fmt.Println("(paper §III-B: EA observes first ~40% of the time, ~4x NA, because")
	fmt.Println(" several prominent pools operate their gateways from Asia)")
	return nil
}

func firstObservationShares(cfg ethmeasure.Config) (map[string]float64, error) {
	campaign, err := ethmeasure.NewCampaign(cfg)
	if err != nil {
		return nil, err
	}
	results, err := campaign.RunContext(context.Background(), ethmeasure.RunOptions{})
	if err != nil {
		return nil, err
	}
	fmt.Printf("blocks observed: %d  within-NTP ties: %.1f%%\n",
		results.FirstObs.Blocks, results.FirstObs.UncertainShare*100)
	for _, v := range results.FirstObs.Vantages {
		fmt.Printf("  %-4s first %5.1f%%\n", v, results.FirstObs.Shares[v]*100)
	}
	fmt.Println()
	return results.FirstObs.Shares, nil
}
