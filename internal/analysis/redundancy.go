package analysis

import (
	"errors"
	"fmt"
	"math"

	"ethmeasure/internal/stats"
)

// ErrNoVantageRecords is Redundancy's error when the redundancy
// vantage recorded no block message, as in a campaign too short to
// mine a block.
var ErrNoVantageRecords = errors.New("analysis: no records for the redundancy vantage")

// RedundancyRow is one row of Table II.
type RedundancyRow struct {
	MessageType string
	Avg         float64
	Median      float64
	Top10       float64 // 90th percentile
	Top1        float64 // 99th percentile
}

// RedundancyResult reproduces Table II: how many redundant copies of
// each block a node with default peer settings receives, split by
// message type. The paper ran this on a subsidiary node with the
// default 25 peers (§III-A2).
type RedundancyResult struct {
	Vantage       string
	Blocks        int
	Announcements RedundancyRow
	WholeBlocks   RedundancyRow
	Combined      RedundancyRow

	// OptimalLn is ln(networkSize), the gossip-theoretic target fanout
	// the paper compares the combined mean against (Eugster et al.).
	OptimalLn float64
}

// Redundancy finalizes Table II from the streaming per-block gossip
// counters of the collector's configured redundancy vantage.
// networkSize feeds the ln(n) optimality comparison.
func (c *Collector) Redundancy(networkSize int) (*RedundancyResult, error) {
	if !c.redSeen {
		return nil, fmt.Errorf("%w %q", ErrNoVantageRecords, c.redVantage)
	}
	ann := stats.NewSample(len(c.redList))
	full := stats.NewSample(len(c.redList))
	both := stats.NewSample(len(c.redList))
	for _, cnt := range c.redList {
		ann.Add(float64(cnt.ann))
		full.Add(float64(cnt.full))
		both.Add(float64(cnt.ann + cnt.full))
	}
	row := func(name string, s *stats.Sample) RedundancyRow {
		mean, _ := s.Mean()
		return RedundancyRow{
			MessageType: name,
			Avg:         mean,
			Median:      s.MustQuantile(0.5),
			Top10:       s.MustQuantile(0.90),
			Top1:        s.MustQuantile(0.99),
		}
	}
	res := &RedundancyResult{
		Vantage:       c.redVantage,
		Blocks:        len(c.redList),
		Announcements: row("Announcements", ann),
		WholeBlocks:   row("Whole Blocks", full),
		Combined:      row("Both combined", both),
	}
	if networkSize > 1 {
		res.OptimalLn = math.Log(float64(networkSize))
	}
	return res, nil
}
