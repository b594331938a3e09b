// Command ethanalyze post-processes a measurement log written by
// ethmeasure -logs and prints the paper's tables and figures — the
// simulated equivalent of the paper's pandas/NumPy pipeline over
// 600 GB of raw Geth logs.
//
// The log is processed as a stream: each record is folded into the
// analysis collector's incremental state as it is parsed, so memory is
// bounded by distinct blocks and transactions, never by file size.
// The log must open with the campaign metadata entry (vantage roster,
// pool names, timing); a log without one is rejected. Campaigns write
// binary ethlog; -convert exports it as JSON Lines (and back). The
// input decides the decoder: the binary magic header and a JSONL line
// cannot be confused, so both encodings are detected on input.
//
// Usage:
//
//	ethanalyze -logs logs.ethlog [-top 15]
//	ethanalyze -logs logs.jsonl -convert logs.ethlog
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/cliutil"
	"ethmeasure/internal/logs"
	"ethmeasure/internal/measure"
	"ethmeasure/internal/report"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ethanalyze:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("ethanalyze", flag.ContinueOnError)
	var (
		logPath     = fs.String("logs", "", "campaign log file, binary or JSONL (required)")
		topN        = fs.Int("top", 15, "pools to list individually in per-pool breakdowns")
		convertPath = fs.String("convert", "", "transcode the log to this path, in the other encoding, instead of analyzing")
		version     = fs.Bool("version", false, "print build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println(cliutil.VersionLine("ethanalyze"))
		return nil
	}
	if *logPath == "" {
		return fmt.Errorf("-logs is required")
	}
	if *convertPath != "" {
		return convert(*logPath, *convertPath)
	}

	f, err := os.Open(*logPath)
	if err != nil {
		return fmt.Errorf("logs: open: %w", err)
	}
	defer f.Close()
	reader := logs.NewReader(f)

	first, err := reader.Next()
	if err == io.EOF {
		return fmt.Errorf("log file %s is empty", *logPath)
	}
	if err != nil {
		return err
	}
	if first.Kind != logs.KindMeta || first.Meta == nil {
		return fmt.Errorf("log file %s has no campaign metadata (it must open with a meta entry, as ethmeasure -logs writes)", *logPath)
	}
	meta := first.Meta
	dataset := &analysis.Dataset{
		Vantages:   meta.Vantages,
		PoolNames:  meta.PoolNames,
		InterBlock: time.Duration(meta.InterBlockNs),
		Duration:   time.Duration(meta.DurationNs),
	}
	// Re-analysis applies the original campaign's consensus rules
	// (protocol-less logs predate pluggable consensus: ethereum).
	proto, err := logs.ProtocolFromMeta(meta)
	if err != nil {
		return err
	}
	builder := logs.ChainBuilder{Protocol: proto}
	protocolTag := proto.Name()
	if meta.Protocol != "" {
		protocolTag = meta.Protocol
	}

	if len(dataset.Vantages) > analysis.MaxVantages {
		return fmt.Errorf("log file lists %d primary vantages; at most %d supported",
			len(dataset.Vantages), analysis.MaxVantages)
	}

	// One streaming pass: records fold into the collector, chain
	// entries rebuild the registry incrementally.
	collector := analysis.NewCollector(dataset, meta.RedundancyVantage)
	for {
		e, err := reader.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		switch e.Kind {
		case logs.KindBlock:
			if e.Block != nil {
				collector.RecordBlock(*e.Block)
			}
		case logs.KindTx:
			if e.Tx != nil {
				collector.RecordTx(*e.Tx)
			}
		case logs.KindChain:
			if e.Chain != nil {
				if err := builder.Add(e.Chain); err != nil {
					return err
				}
			}
		case logs.KindMeta:
			// Leading meta was already consumed; ignore duplicates.
		}
	}
	dataset.Chain = builder.Registry()
	if dataset.Chain == nil {
		return fmt.Errorf("log file has no chain dump; analysis needs it")
	}
	fmt.Printf("streamed %d block records, %d tx records, %d chain blocks from %s\n",
		collector.BlockRecords(), collector.TxRecords(), dataset.Chain.Len(), *logPath)
	fmt.Printf("consensus protocol: %s\n", protocolTag)
	if len(meta.Scenarios) > 0 {
		fmt.Printf("campaign scenarios: %s\n", strings.Join(meta.Scenarios, "; "))
	}
	fmt.Println()

	report.TableI(os.Stdout, measure.PaperInfrastructure())
	fmt.Println()

	prop, err := collector.Propagation()
	if err != nil {
		return err
	}
	report.Figure1(os.Stdout, prop)
	fmt.Println()

	if meta.RedundancyVantage != "" {
		red, err := collector.Redundancy(meta.NetworkSize)
		if err != nil {
			return err
		}
		report.TableII(os.Stdout, red)
		fmt.Println()
	}

	report.Figure2(os.Stdout, collector.FirstObservation())
	fmt.Println()
	report.Figure3(os.Stdout, collector.PoolGeography(*topN))
	fmt.Println()

	hasTxs := collector.TxRecords() > 0
	if hasTxs {
		report.Figure4(os.Stdout, collector.Commit())
		fmt.Println()
		report.Figure5(os.Stdout, collector.Ordering())
		fmt.Println()
	}

	report.Figure6(os.Stdout, analysis.EmptyBlocks(dataset, *topN))
	fmt.Println()
	forks := analysis.Forks(dataset)
	report.TableIII(os.Stdout, forks)
	fmt.Println()
	report.OneMinerForks(os.Stdout, analysis.OneMinerForks(dataset, forks))
	fmt.Println()
	report.Figure7(os.Stdout, analysis.Sequences(dataset, 6))
	if hasTxs {
		fmt.Println()
		report.TxPropagation(os.Stdout, collector.TxPropagation())
	}
	return nil
}

// convert transcodes a campaign log into the encoding the input is
// not: `-convert out` migrates a JSONL log to binary and extracts a
// binary log back to JSONL for external tooling.
func convert(src, dst string) (err error) {
	f, err := os.Open(src)
	if err != nil {
		return fmt.Errorf("logs: open: %w", err)
	}
	defer f.Close()
	reader := logs.NewReader(f)

	// Sniff before creating the output so the target can be "whatever
	// the input is not".
	first, ferr := reader.Next()
	if ferr != nil && ferr != io.EOF {
		return ferr
	}
	outFormat := logs.FormatBinary
	if reader.Format() == logs.FormatBinary {
		outFormat = logs.FormatJSONL
	}
	w, err := logs.CreateFileFormat(dst, outFormat)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := w.Close(); err == nil {
			err = cerr
		}
	}()
	if ferr == io.EOF {
		fmt.Printf("converted 0 entries (%s -> %s) to %s\n", reader.Format(), outFormat, dst)
		return nil
	}
	w.Write(first)
	for {
		e, rerr := reader.Next()
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rerr
		}
		w.Write(e)
		if werr := w.Err(); werr != nil {
			return werr
		}
	}
	fmt.Printf("converted %d entries (%s -> %s) to %s\n", w.Entries(), reader.Format(), outFormat, dst)
	return nil
}
