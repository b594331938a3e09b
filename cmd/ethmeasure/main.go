// Command ethmeasure runs an end-to-end measurement campaign on the
// simulated Ethereum network and prints the paper's tables and
// figures. It is the one-command equivalent of the paper's month-long
// deployment plus offline analysis.
//
// Usage:
//
//	ethmeasure [-preset quick|default|paper] [-seed N] [-duration D]
//	           [-nodes N] [-txrate R] [-shards N] [-progress]
//	           [-print-infra] [-logs PATH]
//	           [-protocol name[:key=val,...]]
//
// -logs streams the campaign's records and chain dump to a binary
// ethlog file during the run (the same log ethsim -out writes), for
// re-analysis with ethanalyze.
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
	"ethmeasure/internal/core"
	"ethmeasure/internal/measure"
	"ethmeasure/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ethmeasure:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ethmeasure", flag.ContinueOnError)
	var (
		preset     = fs.String("preset", "default", "configuration preset: quick | default | paper")
		seed       = fs.Int64("seed", 1, "simulation seed")
		duration   = fs.Duration("duration", 0, "override virtual campaign duration")
		nodes      = fs.Int("nodes", 0, "override regular node count")
		txRate     = fs.Float64("txrate", 0, "override transaction rate (tx/s)")
		noTx       = fs.Bool("no-tx", false, "disable the transaction workload")
		shards     = fs.Int("shards", 0, "event-engine shards (0 = one per geo region up to GOMAXPROCS, 1 = serial)")
		progress   = fs.Bool("progress", false, "print live progress lines during the run")
		printInfra = fs.Bool("print-infra", false, "print Table I (infrastructure) and exit")
		logPath    = fs.String("logs", "", "stream measurement logs + chain dump to this binary ethlog file")
		protocol   = fs.String("protocol", "", "consensus protocol: name[:key=val,...] (default ethereum; see ethsim -list-protocols)")
		version    = fs.Bool("version", false, "print build version and exit")
		scens      cliutil.StringList
	)
	fs.Var(&scens, "scenario", "compose a scenario: name[:key=val,...] (repeatable; see ethsim -list-scenarios)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *version {
		fmt.Println(cliutil.VersionLine("ethmeasure"))
		return nil
	}
	if *printInfra {
		report.TableI(os.Stdout, measure.PaperInfrastructure())
		return nil
	}

	if *duration < 0 {
		return fmt.Errorf("-duration must be non-negative, got %v", *duration)
	}
	if *nodes < 0 {
		return fmt.Errorf("-nodes must be non-negative, got %d", *nodes)
	}
	if *txRate < 0 {
		return fmt.Errorf("-txrate must be non-negative, got %g", *txRate)
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
	if *txRate > 0 {
		cfg.TxGen.Rate = *txRate
		core.ApplyCapacity(&cfg)
	}
	if *noTx {
		cfg.EnableTxWorkload = false
	}
	cfg.Shards = *shards
	cfg.SpillPath = *logPath
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
	fmt.Printf("running %s campaign: %d nodes, %v virtual time, seed %d, protocol %s\n",
		*preset, cfg.NumNodes, cfg.Duration, cfg.Seed, cfg.ProtocolTag())
	if tags := campaign.ScenarioTags(); len(tags) > 0 {
		fmt.Printf("scenarios: %s\n", strings.Join(tags, "; "))
	}
	fmt.Println()
	var opts ethmeasure.RunOptions
	if *progress {
		// ~20 lines across the run, at least one per virtual minute —
		// the same cadence as ethsim -progress.
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
	fmt.Printf("simulated %v in %v wall time: %d events, %d messages, %d blocks, %d txs\n",
		st.VirtualDuration, st.WallDuration.Round(time.Millisecond),
		st.Events, st.Messages, st.BlocksCreated, st.TxsCreated)
	fmt.Printf("record pipeline: %d block records, %d tx records streamed\n\n",
		st.BlockRecords, st.TxRecords)
	ethmeasure.WriteReport(os.Stdout, results)

	if *logPath != "" {
		fmt.Printf("wrote measurement logs to %s\n", *logPath)
	}
	return nil
}
