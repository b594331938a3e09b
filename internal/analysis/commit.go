package analysis

import (
	"sort"
	"time"

	"ethmeasure/internal/stats"
	"ethmeasure/internal/types"
)

// ConfirmationLevels are the block-confirmation depths of Figure 4:
// inclusion plus 3, 12 (Ethereum's default finality rule), 15 and 36
// confirmations.
var ConfirmationLevels = []int{3, 12, 15, 36}

// CommitTimeResult reproduces Figure 4: time from first observation of
// a transaction to its inclusion in a main-chain block, and to that
// block receiving k confirmations.
type CommitTimeResult struct {
	// InclusionSec is the distribution of first-observation→inclusion
	// delays in seconds.
	InclusionSec *stats.Sample

	// ConfirmSec maps confirmation depth k to the distribution of
	// first-observation→k-th-confirmation delays.
	ConfirmSec map[int]*stats.Sample

	// CommittedTxs is the number of transactions included in the main
	// chain and observed by at least one vantage.
	CommittedTxs int

	// Median12Sec is the headline number the paper tracks across
	// studies (189 s in 2019, down from 200 s in 2017).
	Median12Sec float64
}

// Commit finalizes Figure 4 from the transaction arrivals and the
// commit lookup. A transaction contributes to the k-confirmation curve
// only if the chain grew at least k blocks past its including block
// before the run ended (no right-censored points).
func (c *Collector) Commit() *CommitTimeResult {
	res := &CommitTimeResult{
		InclusionSec: stats.NewSample(len(c.txList)),
		ConfirmSec:   make(map[int]*stats.Sample, len(ConfirmationLevels)),
	}
	for _, k := range ConfirmationLevels {
		res.ConfirmSec[k] = stats.NewSample(len(c.txList))
	}
	for _, a := range c.txList {
		inclAt, ok := c.commitSeen(a.hash, 0)
		if !ok {
			continue // never committed, or its block never observed
		}
		res.CommittedTxs++
		res.InclusionSec.Add(secondsSince(a.minTime, inclAt))
		for _, k := range ConfirmationLevels {
			if confAt, ok := c.commitSeen(a.hash, k); ok {
				res.ConfirmSec[k].Add(secondsSince(a.minTime, confAt))
			}
		}
	}
	res.Median12Sec = res.ConfirmSec[12].MustQuantile(0.5)
	return res
}

// commitSeen returns when the primary vantages first saw the main-chain
// block k blocks past the one that includes transaction h (k = 0: the
// including block itself). ok is false when h is not on the main
// chain, the chain ends before that block, or no vantage saw it.
func (c *Collector) commitSeen(h types.Hash, k int) (time.Duration, bool) {
	idx := c.ds.index()
	block, ok := idx.includer(h)
	if !ok {
		return 0, false
	}
	if block = idx.at(block.Number + uint64(k)); block == nil {
		return 0, false
	}
	return c.blockFirstSeen(block.Hash)
}

func secondsSince(from, to time.Duration) float64 {
	delta := to - from
	if delta < 0 {
		delta = 0 // NTP offsets can produce tiny negative readings
	}
	return delta.Seconds()
}

// OrderingResult reproduces Figure 5 and the §III-C2 out-of-order
// statistics: commit delay CDFs split by whether the transaction was
// received in nonce order.
type OrderingResult struct {
	InOrderSec    *stats.Sample
	OutOfOrderSec *stats.Sample

	CommittedTxs    int
	OutOfOrderTxs   int
	OutOfOrderShare float64 // paper: 11.54% (up from 6.18% in 2017)

	// Headline quantiles (paper: OOO p50 < 192 s, p90 < 325 s;
	// in-order p50 < 189 s, p90 < 292 s).
	InOrderP50, InOrderP90       float64
	OutOfOrderP50, OutOfOrderP90 float64
}

// Ordering finalizes Figure 5. A committed transaction is out-of-order
// when it was first observed before some same-sender transaction with
// a lower nonce (paper §III-C2). The shared index already holds each
// transaction's sender, nonce and global first observation in stream
// order, so this is a pass over unique transactions, not raw records.
func (c *Collector) Ordering() *OrderingResult {
	// Commit delay runs to the 12th confirmation block (the paper's
	// 189 s / 192 s medians use the default commit rule).
	const commitDepth = 12
	type txObs struct {
		nonce  uint64
		seenAt time.Duration
		commit time.Duration
	}
	bySender := make(map[types.AccountID][]txObs)
	senderOrder := make([]types.AccountID, 0, 64) // first-appearance order
	for _, a := range c.txList {
		commitAt, ok := c.commitSeen(a.hash, commitDepth)
		if !ok {
			continue // not committed before the run ended
		}
		if _, ok := bySender[a.sender]; !ok {
			senderOrder = append(senderOrder, a.sender)
		}
		bySender[a.sender] = append(bySender[a.sender], txObs{
			nonce:  a.nonce,
			seenAt: a.minTime,
			commit: commitAt,
		})
	}

	res := &OrderingResult{
		InOrderSec:    stats.NewSample(1024),
		OutOfOrderSec: stats.NewSample(256),
	}
	for _, sender := range senderOrder {
		txs := bySender[sender]
		sort.Slice(txs, func(i, j int) bool { return txs[i].nonce < txs[j].nonce })
		// A tx is out-of-order if some lower-nonce tx was seen later.
		maxSeen := time.Duration(-1 << 62)
		for _, tx := range txs {
			res.CommittedTxs++
			delay := secondsSince(tx.seenAt, tx.commit)
			if tx.seenAt < maxSeen {
				res.OutOfOrderTxs++
				res.OutOfOrderSec.Add(delay)
			} else {
				res.InOrderSec.Add(delay)
			}
			if tx.seenAt > maxSeen {
				maxSeen = tx.seenAt
			}
		}
	}
	if res.CommittedTxs > 0 {
		res.OutOfOrderShare = float64(res.OutOfOrderTxs) / float64(res.CommittedTxs)
	}
	res.InOrderP50 = res.InOrderSec.MustQuantile(0.5)
	res.InOrderP90 = res.InOrderSec.MustQuantile(0.9)
	res.OutOfOrderP50 = res.OutOfOrderSec.MustQuantile(0.5)
	res.OutOfOrderP90 = res.OutOfOrderSec.MustQuantile(0.9)
	return res
}
