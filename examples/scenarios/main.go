// Command scenarios contrasts campaign conditions through the
// pluggable scenario engine: the same network under no intervention, a
// mid-run regional partition, and a bloXroute-style relay overlay.
//
//	go run ./examples/scenarios
//
// The partition splits Asia from the rest of the world for a window —
// pool gateways on both sides keep mining, so forks climb. The relay
// overlay gives every pool gateway a fast backbone hub, which pulls
// propagation delays down.
package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"ethmeasure"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scenarios:", err)
		os.Exit(1)
	}
}

func run() error {
	base := ethmeasure.QuickConfig()
	base.Duration = 40 * time.Minute
	base.EnableTxWorkload = false

	variants := []struct {
		label string
		specs []string
	}{
		{"base", nil},
		{"partition", []string{"partition:a=EA+SEA,start=10m,dur=20m"}},
		{"relayoverlay", []string{"relayoverlay:hubs=2"}},
	}

	fmt.Printf("%-14s %12s %12s %10s %s\n", "scenario", "median ms", "p95 ms", "fork rate", "scenario metrics")
	for _, v := range variants {
		cfg := base
		cfg.Scenarios = nil
		for _, raw := range v.specs {
			spec, err := ethmeasure.ParseScenario(raw)
			if err != nil {
				return err
			}
			cfg.Scenarios = append(cfg.Scenarios, spec)
		}
		campaign, err := ethmeasure.NewCampaign(cfg)
		if err != nil {
			return err
		}
		res, err := campaign.RunContext(context.Background(), ethmeasure.RunOptions{})
		if err != nil {
			return err
		}
		var notes []string
		if res.Scenarios != nil {
			for _, name := range res.Scenarios.Metrics.Names() {
				notes = append(notes, fmt.Sprintf("%s=%g", name, res.Scenarios.Metrics[name]))
			}
		}
		fmt.Printf("%-14s %12.1f %12.1f %10.4f %s\n",
			v.label, res.Propagation.MedianMs, res.Propagation.P95Ms,
			1-res.Forks.MainShare, strings.Join(notes, " "))
	}
	fmt.Println("\nfull catalog: go run ./cmd/ethmeasure -list-scenarios")
	return nil
}
