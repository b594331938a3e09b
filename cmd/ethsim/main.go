// Command ethsim runs the network simulation and streams the raw
// measurement records (plus the chain dump at the end) to a binary
// ethlog campaign log — the simulated equivalent of the paper's
// instrumented Geth deployment, producing the dataset that
// cmd/ethanalyze post-processes. Records are written as they are
// produced, never accumulated in RAM, so memory stays bounded at
// paper-scale durations. ethanalyze -convert exports the log as JSON
// Lines for external tooling.
//
// Usage:
//
//	ethsim -out logs.ethlog [-preset quick|default|paper] [-seed N]
//	       [-duration D] [-nodes N] [-no-tx] [-shards N] [-progress]
//	       [-protocol name[:key=val,...]]
//	       [-scenario name[:key=val,...]]...
//	ethsim -list-scenarios
//	ethsim -list-protocols
//
// -protocol selects the consensus rule set the chain runs under
// (fork choice, uncle policy, reward schedule): "ethereum" (default),
// "bitcoin", "ghost-inclusive", with optional parameters. Run
// -list-protocols for the catalog.
//
// -scenario (repeatable) composes a registered intervention into the
// campaign: a regional partition, a relay overlay, an eclipse attack,
// a withholding pool, ... Run -list-scenarios for the catalog.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ethmeasure"
	"ethmeasure/internal/cliutil"
	"ethmeasure/internal/consensus"
	"ethmeasure/internal/core"
	"ethmeasure/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ethsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ethsim", flag.ContinueOnError)
	var (
		out        = fs.String("out", "", "output log file, binary ethlog (required)")
		preset     = fs.String("preset", "quick", "configuration preset: quick | default | paper")
		seed       = fs.Int64("seed", 1, "simulation seed")
		duration   = fs.Duration("duration", 0, "override virtual campaign duration")
		nodes      = fs.Int("nodes", 0, "override regular node count")
		noTx       = fs.Bool("no-tx", false, "disable the transaction workload")
		shards     = fs.Int("shards", 0, "event-engine shards (0 = one per geo region up to GOMAXPROCS, 1 = serial)")
		progress   = fs.Bool("progress", false, "print live progress lines during the run")
		listScens  = fs.Bool("list-scenarios", false, "print the scenario catalog and exit")
		listProtos = fs.Bool("list-protocols", false, "print the consensus-protocol catalog and exit")
		version    = fs.Bool("version", false, "print build version and exit")
		protocol   = fs.String("protocol", "", "consensus protocol: name[:key=val,...] (default ethereum; see -list-protocols)")
		scens      cliutil.StringList
	)
	fs.Var(&scens, "scenario", "compose a scenario: name[:key=val,...] (repeatable; see -list-scenarios)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println(cliutil.VersionLine("ethsim"))
		return nil
	}
	if *listScens {
		printScenarioCatalog(os.Stdout)
		return nil
	}
	if *listProtos {
		printProtocolCatalog(os.Stdout)
		return nil
	}
	if *out == "" {
		return fmt.Errorf("-out is required")
	}

	if *duration < 0 {
		return fmt.Errorf("-duration must be non-negative, got %v", *duration)
	}
	if *nodes < 0 {
		return fmt.Errorf("-nodes must be non-negative, got %d", *nodes)
	}
	if *shards < 0 {
		return fmt.Errorf("-shards must be non-negative, got %d", *shards)
	}
	cfg, err := core.Preset(*preset)
	if err != nil {
		return err
	}
	cfg.Seed = *seed
	if *duration > 0 {
		cfg.Duration = *duration
	}
	if *nodes > 0 {
		cfg.NumNodes = *nodes
	}
	if *noTx {
		cfg.EnableTxWorkload = false
	}
	cfg.Shards = *shards
	cfg.SpillPath = *out
	if *protocol != "" {
		spec, err := ethmeasure.ParseProtocol(*protocol)
		if err != nil {
			return err
		}
		cfg.Protocol = spec
	}
	for _, raw := range scens {
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
	fmt.Printf("simulating %v over %d nodes (seed %d, protocol %s)...\n",
		cfg.Duration, cfg.NumNodes, cfg.Seed, cfg.ProtocolTag())
	if tags := campaign.ScenarioTags(); len(tags) > 0 {
		fmt.Printf("scenarios: %s\n", strings.Join(tags, "; "))
	}
	start := time.Now()
	var opts ethmeasure.RunOptions
	if *progress {
		// ~20 lines across the run, at least one per virtual minute.
		interval := cfg.Duration / 20
		if interval < time.Minute {
			interval = time.Minute
		}
		opts.ProgressInterval = interval
		opts.Progress = func(p ethmeasure.RunProgress) {
			pct := 100 * float64(p.SimTime) / float64(p.Duration)
			fmt.Printf("  %5.1f%%  t=%-8v  %d events, %d blocks, %d block records, %d tx records\n",
				pct, p.SimTime.Round(time.Second), p.Events, p.Blocks, p.BlockRecords, p.TxRecords)
		}
	}
	results, err := campaign.RunContext(context.Background(), opts)
	if err != nil {
		return err
	}
	st := results.Stats
	fmt.Printf("done in %v: %d blocks, %d txs, %d messages\n",
		time.Since(start).Round(time.Millisecond), st.BlocksCreated, st.TxsCreated, st.Messages)
	if results.Scenarios != nil {
		for _, name := range results.Scenarios.Metrics.Names() {
			fmt.Printf("  %s = %g\n", name, results.Scenarios.Metrics[name])
		}
	}

	fmt.Printf("wrote %d block records, %d tx records and the chain dump to %s\n",
		st.BlockRecords, st.TxRecords, *out)
	fmt.Println("analyze with: ethanalyze -logs", *out)
	return nil
}

// printScenarioCatalog renders the registry for -list-scenarios.
func printScenarioCatalog(w *os.File) {
	fmt.Fprintln(w, "Registered scenarios (compose with -scenario name[:key=val,...]):")
	fmt.Fprintln(w)
	for _, reg := range scenario.Catalog() {
		fmt.Fprintf(w, "  %-14s %s\n", reg.Name, reg.Desc)
		fmt.Fprintf(w, "  %-14s usage: %s\n", "", reg.Usage)
	}
}

// printProtocolCatalog renders the registry for -list-protocols.
func printProtocolCatalog(w *os.File) {
	fmt.Fprintln(w, "Registered consensus protocols (select with -protocol name[:key=val,...]):")
	fmt.Fprintln(w)
	for _, reg := range consensus.Catalog() {
		fmt.Fprintf(w, "  %-16s %s\n", reg.Name, reg.Desc)
		fmt.Fprintf(w, "  %-16s usage: %s\n", "", reg.Usage)
	}
}
