// Command ethanalyze post-processes a measurement log written by
// ethmeasure -logs and prints the paper's tables and figures — the
// simulated equivalent of the paper's pandas/NumPy pipeline over
// 600 GB of raw Geth logs.
//
// The log goes through core.AnalyzeLog, the live campaign's analysis
// path, and the report through ethmeasure.WriteReport, so it is the
// report ethmeasure printed for the run except the fee market: gas
// prices are not logged. The log is processed as a stream, so memory
// is bounded by distinct blocks and transactions, never by file size.
// The log must open with the campaign metadata entry (vantage roster,
// pool names, timing); a log without one is rejected. Campaigns write
// binary ethlog; -convert exports it as JSON Lines (and back). The
// input decides the decoder: the binary magic header and a JSONL line
// cannot be confused, so both encodings are detected on input.
//
// Usage:
//
//	ethanalyze -logs logs.ethlog
//	ethanalyze -logs logs.jsonl -convert logs.ethlog
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ethmeasure"
	"ethmeasure/internal/cliutil"
	"ethmeasure/internal/core"
	"ethmeasure/internal/logs"
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
	res, err := core.AnalyzeLog(f)
	if err != nil {
		return fmt.Errorf("%s: %w", *logPath, err)
	}

	fmt.Printf("streamed %d block records, %d tx records, %d chain blocks from %s\n",
		res.Stats.BlockRecords, res.Stats.TxRecords, res.Dataset.Chain.Len(), *logPath)
	fmt.Printf("consensus protocol: %s\n", res.Protocol)
	if res.Scenarios != nil {
		fmt.Printf("campaign scenarios: %s\n", strings.Join(res.Scenarios.Tags, "; "))
	}
	fmt.Println()
	ethmeasure.WriteReport(os.Stdout, res)
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
	// Creating dst truncates it, so dst must not be the input under
	// another name (the same path, a symlink or a hard link).
	in, err := f.Stat()
	if err != nil {
		return fmt.Errorf("logs: stat: %w", err)
	}
	if out, err := os.Stat(dst); err == nil && os.SameFile(in, out) {
		return fmt.Errorf("-convert %s is the input log %s; choose another output", dst, src)
	}
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
