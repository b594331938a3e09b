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
//	         [-duration D] [-nodes N] [-no-tx] [-shards N] [-quiet]
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
// ("name[:key=val,...]", see ethsim -list-scenarios for the catalog),
// each sweeping as its own variant; "none" is the unmodified base.
//
// -protocols adds a consensus-protocol axis: semicolon-separated
// protocol specs ("ethereum", "bitcoin", "ghost-inclusive:depth=10",
// see ethsim -list-protocols), each sweeping as its own variant with
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

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ethsweep", flag.ContinueOnError)
	var (
		preset   = fs.String("preset", "quick", "base configuration preset: quick | default | paper")
		seeds    = fs.Int("seeds", 8, "number of seeds per scenario")
		seedBase = fs.Int64("seed", 1, "first seed (seeds are BASE..BASE+N-1)")
		workers  = fs.Int("workers", 0, "concurrent campaigns (0 = GOMAXPROCS)")
		jsonPath = fs.String("json", "", "write the aggregate as JSON to this file ('-' for stdout)")
		duration = fs.Duration("duration", 0, "override the base virtual campaign duration")
		nodes    = fs.Int("nodes", 0, "override the base regular node count")
		noTx     = fs.Bool("no-tx", false, "disable the transaction workload")
		quiet    = fs.Bool("quiet", false, "suppress per-run progress on stderr")
		scens    = fs.String("scenarios", "", "scenario axis: semicolon-separated specs (name[:key=val,...]; 'none' = base)")
		protos   = fs.String("protocols", "", "consensus-protocol axis: semicolon-separated specs (ethereum;bitcoin;...)")
		shards   = fs.Int("shards", 0, "event-engine shards per campaign (0 = one per geo region up to GOMAXPROCS, 1 = serial)")
		version  = fs.Bool("version", false, "print build version and exit")
		vary     cliutil.StringList
	)
	fs.Var(&vary, "vary", "axis=v1,v2,... (repeatable; axes: nodes, discovery, pools, churn, txrate, duration)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(stdout, cliutil.VersionLine("ethsweep"))
		return nil
	}
	if *seeds < 1 {
		return fmt.Errorf("-seeds must be at least 1, got %d", *seeds)
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
	base, err := core.Preset(*preset)
	if err != nil {
		return err
	}
	if *duration > 0 {
		base.Duration = *duration
	}
	if *nodes > 0 {
		base.NumNodes = *nodes
	}
	if *noTx {
		base.EnableTxWorkload = false
	}
	base.Shards = *shards

	matrix := &sweep.Matrix{
		Base:  base,
		Seeds: sweep.Seeds(*seedBase, *seeds),
	}
	for _, spec := range vary {
		axis, err := parseAxis(spec)
		if err != nil {
			return err
		}
		matrix.Axes = append(matrix.Axes, axis)
	}
	if *scens != "" {
		axis, err := sweep.Scenarios(splitSpecs(*scens)...)
		if err != nil {
			return err
		}
		matrix.Axes = append(matrix.Axes, axis)
	}
	if *protos != "" {
		axis, err := sweep.Protocols(splitSpecs(*protos)...)
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
		*preset, total / *seeds, *seeds, total, base.Duration)

	runner := &sweep.Runner{Workers: *workers}
	if !*quiet {
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
		agg.Runs-agg.Failed, agg.Runs, wall.Round(time.Millisecond))
	agg.WriteText(stdout)

	if *jsonPath != "" {
		if *jsonPath == "-" {
			if err := agg.WriteJSON(stdout); err != nil {
				return err
			}
		} else {
			f, err := os.Create(*jsonPath)
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
			fmt.Fprintf(stdout, "wrote JSON aggregate to %s\n", *jsonPath)
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
