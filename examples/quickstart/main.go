// Quickstart: run a scaled-down version of the paper's measurement
// campaign end-to-end and print every table and figure.
//
//	go run ./examples/quickstart
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
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// QuickConfig simulates ~30 virtual minutes of the Ethereum
	// mainnet: ~120 nodes, the April-2019 mining-pool population, four
	// measurement vantages (NA, EA, WE, CE) plus the default-peers
	// redundancy node.
	cfg := ethmeasure.QuickConfig()
	cfg.Seed = 42

	campaign, err := ethmeasure.NewCampaign(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("simulating %v of Ethereum (%d nodes, %d pools)...\n\n",
		cfg.Duration, cfg.NumNodes, len(cfg.Pools))

	results, err := campaign.RunContext(context.Background(), ethmeasure.RunOptions{})
	if err != nil {
		return err
	}
	st := results.Stats
	fmt.Printf("done in %v wall time: %d blocks, %d txs, %d messages\n\n",
		st.WallDuration.Round(time.Millisecond), st.BlocksCreated, st.TxsCreated, st.Messages)

	ethmeasure.WriteReport(os.Stdout, results)
	return nil
}
