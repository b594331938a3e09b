// Command perfbench is ethmeasure's end-to-end benchmark. It runs one
// deterministic workload through the public API of the campaign,
// logs, analysis and report layers, checks the outputs, and prints
// every metric by name with its unit; the last line of standard output
// is one JSON object with the result. See README.md in this directory.
//
// Usage:
//
//	perfbench --workload relay-1000|blocks-1000|reanalyze [--seed 1] [--seconds 25] [--trace 0|1]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// metricDef declares one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0): what a user
// of the simulator pays.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_us_per_op", "us"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics of a traced run (--trace 1), one group per
// module of the repository.
var perLayer = append([]metricDef{
	{"sim.events_per_vmin", "1/vmin"},
	{"sim.cpu_ns_per_event", "ns"},
	{"sim.pending_max", "count"},
	{"simnet.msgs_per_vmin", "1/vmin"},
	{"p2p.msgs_per_tx", "msg/tx"},
	{"p2p.msgs_per_block", "msg/block"},
	{"p2p.useful_delivery_ratio", "ratio"},
	{"chain.blocks", "count"},
	{"chain.forks", "count"},
	{"mining.siblings", "count"},
	{"txgen.txs_per_vmin", "1/vmin"},
	{"measure.records_per_vmin", "1/vmin"},
	{"logs.spill_bytes_per_record", "B"},
	{"logs.decode_ns_per_record", "ns"},
	{"analysis.fold_ns_per_record", "ns"},
	{"analysis.finalize_ms", "ms"},
	{"report.render_ms", "ms"},
	{"core.build_s", "s"},
	{"gc.alloc_mb_per_vmin", "MB"},
	{"gc.cycles_per_vmin", "1/vmin"},
	{"gc.cpu_share", "share"},
	{"gc.alloc_bytes_per_record", "B"},
	{"gc.end_heap_mb", "MB"},
	{"gc.peak_rss_mb", "MB"},
	{"trace.overhead_share", "share"},
	{"trace.profile_cpu_share", "share"},
}, moduleShareDefs()...)

func moduleShareDefs() []metricDef {
	defs := make([]metricDef, len(modules))
	for i, m := range modules {
		defs[i] = metricDef{m + ".cpu_share", "share"}
	}
	return defs
}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"relay-1000", "blocks-1000", "reanalyze"}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	tmpdir   string
	scale    scale
}

// duration is how long the timed repetitions of one run go on.
func (o options) duration() time.Duration { return time.Duration(o.seconds) * time.Second }

func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := options{scale: fullScale}
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: relay-1000 | blocks-1000 | reanalyze")
	fs.Int64Var(&o.seed, "seed", 1, "campaign seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 25, "keep repeating the timed region until this many seconds have passed")
	fs.IntVar(&trace, "trace", 0, "1: the traced run, printing the per-layer metrics")
	fs.StringVar(&o.tmpdir, "tmpdir", "", "directory for the run's log files (default: the system temp dir)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	known := false
	for _, w := range workloadNames {
		known = known || w == o.workload
	}
	switch {
	case !known:
		return o, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	case o.seconds < 1:
		return o, fmt.Errorf("--seconds must be at least 1")
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner carries one run's state: the operation tally, the metric
// values, the host diagnostics and, in the traced run, the tracer.
type runner struct {
	o         options
	tr        *tracer
	log       io.Writer
	attempted int
	failed    int
	values    map[string]float64
	diag      map[string]any
}

func newRunner(o options, log io.Writer) *runner {
	r := &runner{o: o, log: log, values: map[string]float64{}, diag: map[string]any{}}
	if o.trace {
		r.tr = newTracer()
	}
	return r
}

// op tallies one operation; a non-nil err marks it failed.
func (r *runner) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(r.log, "perfbench: check failed:", err)
	}
}

func (r *runner) set(name string, v float64) { r.values[name] = v }

// outcome is everything one run reports.
type outcome struct {
	result result
	diag   map[string]any
	tr     *tracer
}

// execute runs one workload and collects its result.
func execute(o options, log io.Writer) (*outcome, error) {
	if o.tmpdir == "" {
		o.tmpdir = os.TempDir()
	}
	if err := os.MkdirAll(o.tmpdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.tmpdir, "perfbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.tmpdir = dir

	host := snapshotHost()
	r := newRunner(o, log)
	switch o.workload {
	case "relay-1000":
		err = r.campaignWorkload(true, o.scale.relayHorizon)
	case "blocks-1000":
		err = r.campaignWorkload(false, o.scale.blocksHorizon)
	case "reanalyze":
		err = r.reanalyzeWorkload()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o.workload, err)
	}

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", o.workload, d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	res.Correct = r.failed == 0 && r.attempted > 0
	diag := host.diagnostics()
	for k, v := range r.diag {
		diag[k] = v
	}
	diag["workload"] = o.workload
	diag["seed"] = o.seed
	diag["seconds"] = o.seconds
	diag["trace"] = o.trace
	return &outcome{result: res, diag: diag, tr: r.tr}, nil
}

// emit prints a readable metric table, the diagnostics, the trace (in
// the traced run) and, last, the result line.
func (oc *outcome) emit(w io.Writer) error {
	names := make([]string, 0, len(oc.result.Metrics))
	for name := range oc.result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := oc.result.Metrics[name]
		fmt.Fprintf(w, "%-32s %16.6g %s\n", name, m.Value, m.Unit)
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"diagnostics": oc.diag}); err != nil {
		return err
	}
	if oc.tr != nil {
		if err := oc.tr.write(w); err != nil {
			return err
		}
	}
	return enc.Encode(oc.result)
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	oc, err := execute(o, os.Stderr)
	if err == nil {
		err = oc.emit(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// median returns the median of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
