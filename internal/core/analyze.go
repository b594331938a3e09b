package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"ethmeasure/internal/analysis"
	"ethmeasure/internal/logs"
	"ethmeasure/internal/types"
)

// analyze assembles every per-figure result, for a live campaign
// (Campaign.Analyze) and for a re-analysed log (AnalyzeLog) alike:
// record-driven analyses finalize from the collector, chain-driven ones
// read the registry through the dataset. Stats gets what the records
// and the chain determine; callers add the rest. The fee market needs
// gasPrice; without it FeeMarket stays nil.
func analyze(collector *analysis.Collector, dataset *analysis.Dataset, redundancyVantage string,
	networkSize int, withTxs bool, gasPrice func(types.Hash) (uint64, bool)) (*Results, error) {
	res := &Results{
		Dataset: dataset,
		Stats: RunStats{
			VirtualDuration: dataset.Duration,
			BlocksCreated:   dataset.Chain.Len() - 1,
			Nodes:           networkSize,
			BlockRecords:    collector.BlockRecords(),
			TxRecords:       collector.TxRecords(),
		},
	}
	var err error
	res.Propagation, err = collector.Propagation()
	if err != nil {
		return nil, fmt.Errorf("core: propagation analysis: %w", err)
	}
	if redundancyVantage != "" {
		// A vantage that saw no block leaves Table II out of the
		// report instead of failing the run.
		res.Redundancy, err = collector.Redundancy(networkSize)
		if err != nil && !errors.Is(err, analysis.ErrNoVantageRecords) {
			return nil, fmt.Errorf("core: redundancy analysis: %w", err)
		}
	}
	res.FirstObs = collector.FirstObservation()
	res.PoolGeo = collector.PoolGeography(15)
	res.Empty = analysis.EmptyBlocks(dataset, 15)
	res.Forks = analysis.Forks(dataset)
	res.OneMiner = analysis.OneMinerForks(dataset, res.Forks)
	res.Sequences = analysis.Sequences(dataset, 6)
	res.Rewards = analysis.Rewards(dataset)
	res.Finality = analysis.Finality(dataset, 14)
	res.Throughput = analysis.Throughput(dataset)
	res.InterBlock = analysis.InterBlock(dataset)
	res.Withholding = collector.Withholding()
	res.GeoDelay = collector.GeoDelay()
	if withTxs {
		res.Commit = collector.Commit()
		res.Ordering = collector.Ordering()
		res.TxProp = collector.TxPropagation()
		if gasPrice != nil {
			res.FeeMarket = collector.FeeMarket(gasPrice)
		}
	}
	return res, nil
}

// AnalyzeLog re-analyses a campaign log (ethmeasure -logs, either
// encoding) into the Results the live campaign produced, streaming it
// so memory is bounded by distinct blocks and transactions, not file
// size. The log carries no gas prices, scenario metrics or engine
// counters: FeeMarket stays nil, Scenarios holds only the tags, and
// Stats.Events, Messages, WallDuration and TxsCreated stay zero. The
// transaction analyses run when the log holds tx records.
func AnalyzeLog(r io.Reader) (*Results, error) {
	reader := logs.NewReader(r)
	first, err := reader.Next()
	if err == io.EOF {
		return nil, fmt.Errorf("log is empty")
	}
	if err != nil {
		return nil, err
	}
	if first.Kind != logs.KindMeta || first.Meta == nil {
		return nil, fmt.Errorf("log has no campaign metadata (it must open with a meta entry, as ethmeasure -logs writes)")
	}
	meta := first.Meta
	if len(meta.Vantages) > analysis.MaxVantages {
		return nil, fmt.Errorf("log lists %d primary vantages; at most %d supported",
			len(meta.Vantages), analysis.MaxVantages)
	}
	// Re-analysis applies the original campaign's consensus rules
	// (protocol-less logs predate pluggable consensus: ethereum).
	proto, err := logs.ProtocolFromMeta(meta)
	if err != nil {
		return nil, err
	}
	builder := logs.ChainBuilder{Protocol: proto}
	dataset := &analysis.Dataset{
		Vantages:   meta.Vantages,
		PoolNames:  meta.PoolNames,
		InterBlock: time.Duration(meta.InterBlockNs),
		Duration:   time.Duration(meta.DurationNs),
	}
	collector := analysis.NewCollector(dataset, meta.RedundancyVantage)
	// Duplicate meta entries are ignored.
	for {
		e, err := reader.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		switch {
		case e.Kind == logs.KindBlock && e.Block != nil:
			collector.RecordBlock(*e.Block)
		case e.Kind == logs.KindTx && e.Tx != nil:
			collector.RecordTx(*e.Tx)
		case e.Kind == logs.KindChain && e.Chain != nil:
			if err := builder.Add(e.Chain); err != nil {
				return nil, err
			}
		}
	}
	dataset.Chain = builder.Registry()
	if dataset.Chain == nil {
		return nil, fmt.Errorf("log has no chain dump; analysis needs it")
	}

	res, err := analyze(collector, dataset, meta.RedundancyVantage, meta.NetworkSize,
		collector.TxRecords() > 0, nil)
	if err != nil {
		return nil, err
	}
	res.Protocol = meta.Protocol
	res.ModelRevision = meta.ModelRevision
	if res.Protocol == "" {
		res.Protocol = proto.Name()
	}
	if len(meta.Scenarios) > 0 {
		res.Scenarios = &analysis.ScenarioResult{Tags: meta.Scenarios}
	}
	return res, nil
}
