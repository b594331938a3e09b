package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/core"
	"ethmeasure/internal/logs"
	"ethmeasure/internal/measure"
	"ethmeasure/internal/report"
)

// findings are the analyses a campaign report prints: what a user reads
// at the end of a campaign or of an ethanalyze pass over its log.
type findings struct {
	prop     *analysis.PropagationResult
	red      *analysis.RedundancyResult
	firstObs *analysis.FirstObservationResult
	poolGeo  *analysis.PoolGeographyResult
	commit   *analysis.CommitTimeResult
	ordering *analysis.OrderingResult
	empty    *analysis.EmptyBlocksResult
	forks    *analysis.ForksResult
	oneMiner *analysis.OneMinerForksResult
	seq      *analysis.SequencesResult
	txProp   *analysis.TxPropagationResult
}

func campaignFindings(res *core.Results) *findings {
	return &findings{
		prop: res.Propagation, red: res.Redundancy, firstObs: res.FirstObs,
		poolGeo: res.PoolGeo, commit: res.Commit, ordering: res.Ordering,
		empty: res.Empty, forks: res.Forks, oneMiner: res.OneMiner,
		seq: res.Sequences, txProp: res.TxProp,
	}
}

// digest renders the figures the reanalyze check compares — the
// propagation percentiles, first-observation shares, Table II
// redundancy and the fork census — with every digit, so two runs agree
// only when they computed bit-identical values.
func (f *findings) digest() string {
	var b strings.Builder
	p := f.prop
	fmt.Fprintf(&b, "prop %v %v %v %v %v %d;", p.MedianMs, p.MeanMs, p.P95Ms, p.P99Ms, p.DelaysMs.N(), p.Blocks)
	if r := f.red; r != nil {
		fmt.Fprintf(&b, "red %d %v %v %v;", r.Blocks, r.Announcements, r.WholeBlocks, r.Combined)
	}
	fo := f.firstObs
	names := make([]string, 0, len(fo.Shares))
	for name := range fo.Shares {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "first %d %v", fo.Blocks, fo.UncertainShare)
	for _, name := range names {
		fmt.Fprintf(&b, " %s=%v/%d", name, fo.Shares[name], fo.Counts[name])
	}
	k := f.forks
	fmt.Fprintf(&b, ";forks %d %d %d %d %d %v", k.TotalBlocks, k.MainBlocks, k.RecognizedUncles, k.UnrecognizedSide, k.TotalForks, k.Rows)
	return b.String()
}

// render prints the full report, section by section as ethanalyze
// prints it.
func (f *findings) render(w io.Writer) {
	report.TableI(w, measure.PaperInfrastructure())
	report.Figure1(w, f.prop)
	if f.red != nil {
		report.TableII(w, f.red)
	}
	report.Figure2(w, f.firstObs)
	report.Figure3(w, f.poolGeo)
	if f.commit != nil {
		report.Figure4(w, f.commit)
		report.Figure5(w, f.ordering)
	}
	report.Figure6(w, f.empty)
	report.TableIII(w, f.forks)
	report.OneMinerForks(w, f.oneMiner)
	report.Figure7(w, f.seq)
	if f.txProp != nil {
		report.TxPropagation(w, f.txProp)
	}
}

// reanalysis is one pass of the ethanalyze path over a campaign log.
type reanalysis struct {
	findings  *findings
	collector *analysis.Collector // kept reachable for the live-heap figure
	records   int
}

// stageClock sums the CPU time of a traced pass's stages. Decode and
// fold interleave record by record inside the stream stage; decodeLog
// times decode alone so the two can be told apart. Nil in untraced
// passes.
type stageClock struct {
	stream, finalize, render time.Duration
}

// reanalyze runs the ethanalyze path over the log at path: stream every
// entry through logs.Reader.Next, fold records into a fresh collector
// and chain entries into a ChainBuilder, run the finalisers and chain
// analyses, and render the report to io.Discard. tr and sc (both nil
// when untraced) record a span and the CPU time of each stage.
func reanalyze(path string, tr *tracer, parent int, sc *stageClock) (*reanalysis, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("reanalyze: %w", err)
	}
	defer f.Close()
	reader := logs.NewReader(f)

	first, err := reader.Next()
	if err != nil {
		return nil, fmt.Errorf("reanalyze %s: %w", path, err)
	}
	if first.Kind != logs.KindMeta || first.Meta == nil {
		return nil, fmt.Errorf("reanalyze %s: log does not start with metadata", path)
	}
	meta := first.Meta
	ds := &analysis.Dataset{
		Vantages:   meta.Vantages,
		PoolNames:  meta.PoolNames,
		InterBlock: time.Duration(meta.InterBlockNs),
		Duration:   time.Duration(meta.DurationNs),
	}
	var builder logs.ChainBuilder
	if builder.Protocol, err = logs.ProtocolFromMeta(meta); err != nil {
		return nil, err
	}
	collector := analysis.NewCollector(ds, meta.RedundancyVantage)

	st := tr.begin("reanalyze.stream", parent)
	for {
		e, err := reader.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("reanalyze %s: %w", path, err)
		}
		switch e.Kind {
		case logs.KindBlock:
			collector.RecordBlock(*e.Block)
		case logs.KindTx:
			collector.RecordTx(*e.Tx)
		case logs.KindChain:
			if err := builder.Add(e.Chain); err != nil {
				return nil, fmt.Errorf("reanalyze %s: %w", path, err)
			}
		}
	}
	streamCPU := tr.end(st)
	ds.Chain = builder.Registry()
	if ds.Chain == nil {
		return nil, fmt.Errorf("reanalyze %s: log has no chain dump", path)
	}

	fin := tr.begin("analysis.finalize", parent)
	out := &findings{}
	if out.prop, err = collector.Propagation(); err != nil {
		return nil, err
	}
	if meta.RedundancyVantage != "" {
		if out.red, err = collector.Redundancy(meta.NetworkSize); err != nil {
			return nil, err
		}
	}
	out.firstObs = collector.FirstObservation()
	out.poolGeo = collector.PoolGeography(15)
	if collector.TxRecords() > 0 {
		out.commit = collector.Commit()
		out.ordering = collector.Ordering()
		out.txProp = collector.TxPropagation()
	}
	out.empty = analysis.EmptyBlocks(ds, 15)
	out.forks = analysis.Forks(ds)
	out.oneMiner = analysis.OneMinerForks(ds, out.forks)
	out.seq = analysis.Sequences(ds, 6)
	finCPU := tr.end(fin)

	rend := tr.begin("report.render", parent)
	out.render(io.Discard)
	renderCPU := tr.end(rend)
	if sc != nil {
		sc.stream += streamCPU
		sc.finalize += finCPU
		sc.render += renderCPU
	}
	return &reanalysis{
		findings:  out,
		collector: collector,
		records:   collector.BlockRecords() + collector.TxRecords(),
	}, nil
}

// decodeLog reads every entry of the log at path and discards it: the
// decode stage of a pass on its own. It returns the CPU time taken.
func decodeLog(path string) (time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("decode: %w", err)
	}
	defer f.Close()
	cpu0 := processCPU()
	reader := logs.NewReader(f)
	for {
		if _, err := reader.Next(); err == io.EOF {
			break
		} else if err != nil {
			return 0, fmt.Errorf("decode %s: %w", path, err)
		}
	}
	return processCPU() - cpu0, nil
}
