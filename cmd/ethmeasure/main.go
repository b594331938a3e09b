// Command ethmeasure runs an end-to-end measurement campaign on the
// simulated Ethereum network and prints the paper's tables and
// figures. It is the one-command equivalent of the paper's month-long
// deployment plus offline analysis.
//
// Usage:
//
//	ethmeasure [-preset quick|default|paper] [-seed N] [-duration D]
//	           [-nodes N] [-txrate R] [-no-tx] [-shards N] [-progress]
//	           [-print-infra] [-logs PATH]
//	           [-protocol name[:key=val,...]]
//	           [-scenario name[:key=val,...]]...
//	ethmeasure -list-scenarios
//	ethmeasure -list-protocols
//
// -logs streams the campaign's raw measurement records and, at the end
// of the run, its chain dump to a binary ethlog file as they are
// produced — the dataset cmd/ethanalyze post-processes. Records are
// never accumulated in RAM, so memory stays bounded at paper-scale
// durations; ethanalyze -convert exports the log as JSON Lines.
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
	"io"
	"os"
	"strings"
	"time"

	"ethmeasure"
	"ethmeasure/internal/cliutil"
	"ethmeasure/internal/consensus"
	"ethmeasure/internal/core"
	"ethmeasure/internal/measure"
	"ethmeasure/internal/report"
	"ethmeasure/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ethmeasure:", err)
		os.Exit(1)
	}
}

// options is the parsed command line.
type options struct {
	preset     string
	seed       int64
	logPath    string
	overrides  core.Overrides
	progress   bool
	printInfra bool
	listScens  bool
	listProtos bool
	version    bool
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("ethmeasure", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.preset, "preset", "default", "configuration preset: quick | default | paper")
	fs.Int64Var(&o.seed, "seed", 1, "simulation seed")
	fs.DurationVar(&o.overrides.Duration, "duration", 0, "override virtual campaign duration")
	fs.IntVar(&o.overrides.Nodes, "nodes", 0, "override regular node count")
	fs.Float64Var(&o.overrides.TxRate, "txrate", 0, "override transaction rate (tx/s)")
	fs.BoolVar(&o.overrides.NoTx, "no-tx", false, "disable the transaction workload")
	fs.IntVar(&o.overrides.Shards, "shards", 0, "event-engine shards (0 or 1 = serial; results are identical at any count)")
	fs.BoolVar(&o.progress, "progress", false, "print live progress lines during the run")
	fs.BoolVar(&o.printInfra, "print-infra", false, "print Table I (infrastructure) and exit")
	fs.BoolVar(&o.listScens, "list-scenarios", false, "print the scenario catalog and exit")
	fs.BoolVar(&o.listProtos, "list-protocols", false, "print the consensus-protocol catalog and exit")
	fs.StringVar(&o.logPath, "logs", "", "stream measurement logs + chain dump to this binary ethlog file")
	fs.StringVar(&o.overrides.Protocol, "protocol", "", "consensus protocol: name[:key=val,...] (default ethereum; see -list-protocols)")
	fs.BoolVar(&o.version, "version", false, "print build version and exit")
	fs.Var((*cliutil.StringList)(&o.overrides.Scenarios), "scenario", "compose a scenario: name[:key=val,...] (repeatable; see -list-scenarios)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, nil
}

// config builds the campaign configuration the command line describes.
func (o *options) config() (core.Config, error) {
	cfg, err := core.Configure(o.preset, o.overrides)
	if err != nil {
		return cfg, err
	}
	cfg.Seed = o.seed
	cfg.SpillPath = o.logPath
	return cfg, nil
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	switch {
	case o.version:
		fmt.Println(cliutil.VersionLine("ethmeasure"))
		return nil
	case o.printInfra:
		report.TableI(os.Stdout, measure.PaperInfrastructure())
		return nil
	case o.listScens:
		printScenarioCatalog(os.Stdout)
		return nil
	case o.listProtos:
		printProtocolCatalog(os.Stdout)
		return nil
	}

	cfg, err := o.config()
	if err != nil {
		return err
	}
	campaign, err := ethmeasure.NewCampaign(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("running %s campaign: %d nodes, %v virtual time, seed %d, protocol %s\n",
		o.preset, cfg.NumNodes, cfg.Duration, cfg.Seed, cfg.ProtocolTag())
	if tags := campaign.ScenarioTags(); len(tags) > 0 {
		fmt.Printf("scenarios: %s\n", strings.Join(tags, "; "))
	}
	fmt.Println()
	var opts ethmeasure.RunOptions
	if o.progress {
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
	fmt.Printf("simulated %v in %v wall time: %d events, %d messages, %d blocks, %d txs\n",
		st.VirtualDuration, st.WallDuration.Round(time.Millisecond),
		st.Events, st.Messages, st.BlocksCreated, st.TxsCreated)
	fmt.Printf("record pipeline: %d block records, %d tx records streamed\n\n",
		st.BlockRecords, st.TxRecords)
	ethmeasure.WriteReport(os.Stdout, results)

	if o.logPath != "" {
		fmt.Printf("wrote measurement logs to %s\n", o.logPath)
	}
	return nil
}

// printScenarioCatalog renders the registry for -list-scenarios.
func printScenarioCatalog(w io.Writer) {
	fmt.Fprintln(w, "Registered scenarios (compose with -scenario name[:key=val,...]):")
	fmt.Fprintln(w)
	for _, reg := range scenario.Catalog() {
		fmt.Fprintf(w, "  %-14s %s\n", reg.Name, reg.Desc)
		fmt.Fprintf(w, "  %-14s usage: %s\n", "", reg.Usage)
	}
}

// printProtocolCatalog renders the registry for -list-protocols.
func printProtocolCatalog(w io.Writer) {
	fmt.Fprintln(w, "Registered consensus protocols (select with -protocol name[:key=val,...]):")
	fmt.Fprintln(w)
	for _, reg := range consensus.Catalog() {
		fmt.Fprintf(w, "  %-16s %s\n", reg.Name, reg.Desc)
		fmt.Fprintf(w, "  %-16s usage: %s\n", "", reg.Usage)
	}
}
