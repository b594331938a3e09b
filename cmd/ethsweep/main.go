// Command ethsweep runs a parallel multi-seed campaign sweep and
// reports cross-seed aggregate statistics (mean ± 95% CI) instead of
// the single-run point estimates of cmd/ethmeasure. This is the
// methodology the paper could not apply to its one-month live
// deployment: rerun the experiment many times, vary the scenario, and
// quantify the spread.
//
// Usage:
//
//	ethsweep [-preset quick|default|paper] [-seeds N] [-seed BASE]
//	         [-vary axis=v1,v2,...]... [-scenarios spec;spec;...]
//	         [-protocols spec;spec;...]
//	         [-workers N] [-json PATH]
//	         [-duration D] [-nodes N] [-no-tx] [-quiet]
//
// Axes accepted by -vary (repeatable, one axis each):
//
//	nodes=100,500,1000      regular node count
//	discovery=off,on        topology construction (random | devp2p discovery)
//	pools=paper,uniform,equal,majority
//	                        pool population / hash-rate split
//	churn=none,default,heavy
//	                        node turnover profile
//	txrate=0.5,2            transaction workload rate (tx/s)
//	duration=30m,2h         virtual campaign length
//
// -scenarios adds a scenario axis: semicolon-separated scenario specs
// ("name[:key=val,...]", see ethmeasure -list-scenarios for the catalog),
// each sweeping as its own variant; "none" is the unmodified base.
//
// -protocols adds a consensus-protocol axis: semicolon-separated
// protocol specs ("ethereum", "bitcoin", "ghost-inclusive:depth=10",
// see ethmeasure -list-protocols), each sweeping as its own variant with
// per-protocol cross-seed aggregates.
//
// Examples:
//
//	ethsweep -preset quick -seeds 8 -vary nodes=100,500 -json out.json
//	ethsweep -preset quick -seeds 8 \
//	    -scenarios "none;partition:a=EA+SEA,start=5m,dur=10m;relayoverlay"
//	ethsweep -preset quick -seeds 8 -protocols "ethereum;bitcoin"
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"ethmeasure/internal/cliutil"
	"ethmeasure/internal/core"
	"ethmeasure/internal/sweep"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ethsweep:", err)
		os.Exit(1)
	}
}

// options is the parsed command line.
type options struct {
	preset    string
	seeds     int
	seedBase  int64
	workers   int
	jsonPath  string
	overrides core.Overrides
	quiet     bool
	scens     string
	protos    string
	version   bool
	vary      cliutil.StringList
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("ethsweep", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.preset, "preset", "quick", "base configuration preset: quick | default | paper")
	fs.IntVar(&o.seeds, "seeds", 8, "number of seeds per scenario")
	fs.Int64Var(&o.seedBase, "seed", 1, "first seed (seeds are BASE..BASE+N-1)")
	fs.IntVar(&o.workers, "workers", 0, "concurrent campaigns (0 = GOMAXPROCS)")
	fs.StringVar(&o.jsonPath, "json", "", "write the aggregate as JSON to this file ('-' for stdout)")
	fs.DurationVar(&o.overrides.Duration, "duration", 0, "override the base virtual campaign duration")
	fs.IntVar(&o.overrides.Nodes, "nodes", 0, "override the base regular node count")
	fs.BoolVar(&o.overrides.NoTx, "no-tx", false, "disable the transaction workload")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress per-run progress on stderr")
	fs.StringVar(&o.scens, "scenarios", "", "scenario axis: semicolon-separated specs (name[:key=val,...]; 'none' = base)")
	fs.StringVar(&o.protos, "protocols", "", "consensus-protocol axis: semicolon-separated specs (ethereum;bitcoin;...)")
	fs.BoolVar(&o.version, "version", false, "print build version and exit")
	fs.Var(&o.vary, "vary", "axis=v1,v2,... (repeatable; axes: nodes, discovery, pools, churn, txrate, duration)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return o, nil
}

func run(args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	if o.version {
		fmt.Fprintln(stdout, cliutil.VersionLine("ethsweep"))
		return nil
	}
	if o.seeds < 1 {
		return fmt.Errorf("-seeds must be at least 1, got %d", o.seeds)
	}
	base, err := core.Configure(o.preset, o.overrides)
	if err != nil {
		return err
	}

	matrix := &sweep.Matrix{
		Base:  base,
		Seeds: sweep.Seeds(o.seedBase, o.seeds),
	}
	for _, spec := range o.vary {
		axis, err := parseAxis(spec)
		if err != nil {
			return err
		}
		matrix.Axes = append(matrix.Axes, axis)
	}
	if o.scens != "" {
		axis, err := sweep.Scenarios(splitSpecs(o.scens)...)
		if err != nil {
			return err
		}
		matrix.Axes = append(matrix.Axes, axis)
	}
	if o.protos != "" {
		axis, err := sweep.Protocols(splitSpecs(o.protos)...)
		if err != nil {
			return err
		}
		matrix.Axes = append(matrix.Axes, axis)
	}

	// Ctrl-C cancels the sweep but still aggregates completed runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	total := matrix.NumRuns()
	fmt.Fprintf(stdout, "sweeping %s preset: %d scenarios x %d seeds = %d runs (%v virtual each)\n",
		o.preset, total/o.seeds, o.seeds, total, base.Duration)

	runner := &sweep.Runner{Workers: o.workers}
	if !o.quiet {
		runner.OnResult = func(done, total int, r *sweep.RunResult) {
			status := "ok"
			if r.Err != nil {
				status = "FAILED: " + r.Err.Error()
			}
			fmt.Fprintf(os.Stderr, "run %d/%d scenario=%s seed=%d %s (%v)\n",
				done, total, r.Run.Scenario, r.Run.Seed, status, r.Wall.Round(time.Millisecond))
		}
	}

	start := time.Now()
	results, runErr := runner.Run(ctx, matrix)
	if runErr != nil && results == nil {
		return runErr
	}
	agg := sweep.Aggregate(results)
	wall := time.Since(start)

	fmt.Fprintf(stdout, "\ncompleted %d/%d runs in %v wall time\n",
		agg.Runs-agg.Failed-agg.Skipped, agg.Runs, wall.Round(time.Millisecond))
	agg.WriteText(stdout)

	if o.jsonPath != "" {
		if o.jsonPath == "-" {
			if err := agg.WriteJSON(stdout); err != nil {
				return err
			}
		} else {
			f, err := os.Create(o.jsonPath)
			if err != nil {
				return err
			}
			if err := agg.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote JSON aggregate to %s\n", o.jsonPath)
		}
	}
	if runErr != nil {
		return fmt.Errorf("sweep interrupted: %w", runErr)
	}
	if agg.Failed > 0 {
		return fmt.Errorf("%d of %d runs failed", agg.Failed, agg.Runs)
	}
	return nil
}

// parseAxis turns one -vary occurrence ("nodes=100,500") into a sweep
// axis.
func parseAxis(spec string) (sweep.Axis, error) {
	key, vals, ok := strings.Cut(spec, "=")
	if !ok || vals == "" {
		return sweep.Axis{}, fmt.Errorf("-vary %q: want axis=v1,v2,...", spec)
	}
	parts := strings.Split(vals, ",")
	switch key {
	case "nodes":
		ns := make([]int, 0, len(parts))
		for _, p := range parts {
			n, err := strconv.Atoi(strings.TrimSpace(p))
			if err != nil {
				return sweep.Axis{}, fmt.Errorf("-vary nodes: bad count %q", p)
			}
			ns = append(ns, n)
		}
		return sweep.Nodes(ns...), nil
	case "discovery":
		bs := make([]bool, 0, len(parts))
		for _, p := range parts {
			switch strings.TrimSpace(p) {
			case "on", "true":
				bs = append(bs, true)
			case "off", "false":
				bs = append(bs, false)
			default:
				return sweep.Axis{}, fmt.Errorf("-vary discovery: want on/off, got %q", p)
			}
		}
		return sweep.Discovery(bs...), nil
	case "pools":
		return sweep.PoolSplits(trimAll(parts)...)
	case "churn":
		return sweep.ChurnProfiles(trimAll(parts)...)
	case "txrate":
		rs := make([]float64, 0, len(parts))
		for _, p := range parts {
			r, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return sweep.Axis{}, fmt.Errorf("-vary txrate: bad rate %q", p)
			}
			rs = append(rs, r)
		}
		return sweep.TxRates(rs...), nil
	case "duration":
		ds := make([]time.Duration, 0, len(parts))
		for _, p := range parts {
			d, err := time.ParseDuration(strings.TrimSpace(p))
			if err != nil {
				return sweep.Axis{}, fmt.Errorf("-vary duration: bad duration %q", p)
			}
			ds = append(ds, d)
		}
		return sweep.Durations(ds...), nil
	default:
		return sweep.Axis{}, fmt.Errorf("-vary: unknown axis %q (want nodes|discovery|pools|churn|txrate|duration)", key)
	}
}

func trimAll(parts []string) []string {
	out := make([]string, len(parts))
	for i, p := range parts {
		out[i] = strings.TrimSpace(p)
	}
	return out
}

// splitSpecs splits a semicolon-separated spec list the way -vary
// values are treated: each item trimmed, empty items dropped. Without
// this, "partition; eclipse;" used to produce a " eclipse" spec (the
// parser rejects the leading space) and a phantom empty variant from
// the trailing semicolon.
func splitSpecs(s string) []string {
	parts := strings.Split(s, ";")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
