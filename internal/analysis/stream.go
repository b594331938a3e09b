package analysis

import (
	"sort"
	"time"

	"ethmeasure/internal/measure"
	"ethmeasure/internal/types"
)

// MaxVantages bounds the primary vantage count: per-block arrival
// state keeps one bit and one slot per vantage (the paper uses four).
// core.Config.Validate and cmd/ethanalyze enforce it before a
// Collector is built.
const MaxVantages = 64

// blockArrivals is one block's earliest observation per primary
// vantage. Slots are indexed by vantage position in presentation
// order, so every consumer iterates vantages deterministically.
type blockArrivals struct {
	hash     types.Hash
	at       []time.Duration // earliest local time, indexed by vantage
	seen     uint64          // bitmask over vantage indices
	vantages int             // distinct vantages that observed the block
	minTime  time.Duration   // global first observation
	minVant  int             // vantage index of the first observer
}

// txArrival is the transaction analogue of blockArrivals, plus the
// sender/nonce metadata the ordering analyses need. Entries are also
// kept in first-primary-observation (stream) order, the order the tx
// analyses iterate in.
type txArrival struct {
	hash     types.Hash
	sender   types.AccountID
	nonce    uint64
	at       []time.Duration
	seen     uint64
	vantages int
	minTime  time.Duration
	minVant  int
}

// redCount tallies gossip copies of one block at the redundancy
// vantage, split by message type (Table II).
type redCount struct {
	ann, full int
}

// Collector is the streaming analysis pipeline: a measure.Recorder
// that folds every record into O(1)-amortized incremental state — the
// shared per-block/per-transaction arrival index plus the redundancy
// counters — as records arrive. At campaign end the per-figure
// finalizers (Propagation, FirstObservation, PoolGeography, Commit,
// ...) assemble their results from that shared state; no finalizer
// re-scans the raw record stream, so the campaign never needs to
// retain it.
//
// Memory is bounded by the number of distinct blocks and transactions
// observed (one fixed-size entry each), not by the number of records:
// a block gossiped to five vantages with ninefold redundancy costs one
// index entry instead of ~45 retained records.
//
// The wrapped Dataset provides the vantage roster up front and the
// campaign context (chain registry, pool names, timing) at finalize
// time. Feed records live (as a bus
// consumer) or from a log reader (cmd/ethanalyze) — both produce
// bit-identical results because all state transitions depend only on
// per-kind record order, which the bus and the log preserve.
type Collector struct {
	ds         *Dataset
	vidx       map[string]int // primary vantage name -> slot
	redVantage string

	byBlock      map[types.Hash]*blockArrivals
	blockList    []*blockArrivals // sorted by (minTime, hash) on demand
	blocksSorted bool

	byTx   map[types.Hash]*txArrival
	txList []*txArrival // first-observation stream order

	red     map[types.Hash]*redCount
	redList []*redCount // creation order, for deterministic finalize
	redSeen bool        // any record at the redundancy vantage

	blockRecords, txRecords int
}

var _ measure.Recorder = (*Collector)(nil)

// NewCollector builds an empty collector over ds. The dataset's
// Vantages (primary, presentation order) must be set; Chain, PoolNames
// and the timing fields may be filled in any time before finalizers
// run. redundancyVantage names the default-peers node whose records
// feed the Table II analysis ("" disables it).
func NewCollector(ds *Dataset, redundancyVantage string) *Collector {
	if len(ds.Vantages) > MaxVantages {
		panic("analysis: more than 64 primary vantages")
	}
	c := &Collector{
		ds:         ds,
		vidx:       make(map[string]int, len(ds.Vantages)),
		redVantage: redundancyVantage,
		byBlock:    make(map[types.Hash]*blockArrivals, 1024),
		byTx:       make(map[types.Hash]*txArrival, 1024),
	}
	for i, v := range ds.Vantages {
		c.vidx[v] = i
	}
	if redundancyVantage != "" {
		c.red = make(map[types.Hash]*redCount, 1024)
	}
	return c
}

// RecordBlock implements measure.Recorder: O(1) amortized per record.
func (c *Collector) RecordBlock(r measure.BlockRecord) {
	c.blockRecords++
	if c.redVantage != "" && r.Vantage == c.redVantage {
		c.redSeen = true
		cnt, ok := c.red[r.Hash]
		if !ok {
			cnt = &redCount{}
			c.red[r.Hash] = cnt
			c.redList = append(c.redList, cnt)
		}
		switch r.Kind {
		case "announce":
			cnt.ann++
		case "block":
			cnt.full++
			// "fetched" bodies are replies to explicit requests, not
			// redundant gossip, and are excluded as in the paper.
		}
	}
	vi, ok := c.vidx[r.Vantage]
	if !ok {
		return // auxiliary vantage: excluded from arrival analyses
	}
	a, ok := c.byBlock[r.Hash]
	if !ok {
		a = &blockArrivals{
			hash:    r.Hash,
			at:      make([]time.Duration, len(c.ds.Vantages)),
			minTime: r.At,
			minVant: vi,
		}
		c.byBlock[r.Hash] = a
		c.blockList = append(c.blockList, a)
		c.blocksSorted = false
	}
	bit := uint64(1) << uint(vi)
	if a.seen&bit == 0 {
		a.seen |= bit
		a.vantages++
		a.at[vi] = r.At
	} else if r.At < a.at[vi] {
		a.at[vi] = r.At
	}
	if r.At < a.minTime {
		a.minTime = r.At
		a.minVant = vi
	}
}

// RecordTx implements measure.Recorder: O(1) amortized per record.
func (c *Collector) RecordTx(r measure.TxRecord) {
	c.txRecords++
	vi, ok := c.vidx[r.Vantage]
	if !ok {
		return
	}
	a, ok := c.byTx[r.Hash]
	if !ok {
		a = &txArrival{
			hash:    r.Hash,
			sender:  r.Sender,
			nonce:   r.Nonce,
			at:      make([]time.Duration, len(c.ds.Vantages)),
			minTime: r.At,
			minVant: vi,
		}
		c.byTx[r.Hash] = a
		c.txList = append(c.txList, a)
	}
	bit := uint64(1) << uint(vi)
	if a.seen&bit == 0 {
		a.seen |= bit
		a.vantages++
		a.at[vi] = r.At
	} else if r.At < a.at[vi] {
		a.at[vi] = r.At
	}
	if r.At < a.minTime {
		a.minTime = r.At
		a.minVant = vi
	}
}

// BlockRecords returns how many block records the collector consumed
// (all vantages, including auxiliary ones).
func (c *Collector) BlockRecords() int { return c.blockRecords }

// TxRecords returns how many transaction records the collector consumed.
func (c *Collector) TxRecords() int { return c.txRecords }

// sortedArrivals returns per-block arrivals in ascending order of
// global first observation (ties broken by hash), the iteration order
// every block-level finalizer shares.
func (c *Collector) sortedArrivals() []*blockArrivals {
	if !c.blocksSorted {
		sort.Slice(c.blockList, func(i, j int) bool {
			if c.blockList[i].minTime != c.blockList[j].minTime {
				return c.blockList[i].minTime < c.blockList[j].minTime
			}
			return c.blockList[i].hash < c.blockList[j].hash
		})
		c.blocksSorted = true
	}
	return c.blockList
}

// blockFirstSeen returns a block's earliest observation across the
// primary vantages.
func (c *Collector) blockFirstSeen(h types.Hash) (time.Duration, bool) {
	a, ok := c.byBlock[h]
	if !ok {
		return 0, false
	}
	return a.minTime, true
}

// vantageName resolves a vantage slot back to its display name.
func (c *Collector) vantageName(vi int) string { return c.ds.Vantages[vi] }
