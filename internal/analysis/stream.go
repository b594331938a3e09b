package analysis

import (
	"math"
	"math/bits"
	"sort"
	"time"

	"ethmeasure/internal/measure"
	"ethmeasure/internal/stats"
	"ethmeasure/internal/types"
)

// MaxVantages bounds the primary vantage count: per-block arrival
// state keeps one bit and one slot per vantage (the paper uses four).
// core.Config.Validate and cmd/ethanalyze enforce it before a
// Collector is built.
const MaxVantages = 64

// arrival is one block's or transaction's earliest observation per
// primary vantage. Slots are indexed by vantage position in
// presentation order, so every consumer iterates vantages
// deterministically; bits.OnesCount64(seen) is how many vantages saw it.
type arrival struct {
	hash    types.Hash
	at      []time.Duration // earliest local time, indexed by vantage
	seen    uint64          // bitmask over vantage indices
	minTime time.Duration   // global first observation
	minVant int             // vantage index of the first observer
}

// txArrival is a transaction's arrival plus the sender/nonce metadata
// the ordering analyses need.
type txArrival struct {
	arrival
	sender types.AccountID
	nonce  uint64
}

// observe folds vantage vi's sighting at local time at into a.
func (a *arrival) observe(vi int, at time.Duration) {
	bit := uint64(1) << uint(vi)
	if a.seen&bit == 0 {
		a.seen |= bit
		a.at[vi] = at
	} else if at < a.at[vi] {
		a.at[vi] = at
	}
	if at < a.minTime {
		a.minTime = at
		a.minVant = vi
	}
}

// redCount tallies gossip copies of one block at the redundancy
// vantage, split by message type (Table II).
type redCount struct {
	ann, full int
}

// Collector is the streaming analysis pipeline: a measure.Recorder
// that folds every record into O(1)-amortized incremental state — one
// arrival per block and per transaction, folded by arrival.observe,
// plus the redundancy counters — as records arrive. At campaign end the
// per-figure finalizers (Propagation, FirstObservation, PoolGeography,
// Commit, ...) assemble their results from that shared state: the delay
// figures from one lag profile (lagProfile), the commit figures from
// one commit lookup (commitSeen). No finalizer re-scans the raw record
// stream, so the campaign never needs to retain it.
//
// Memory is bounded by the number of distinct blocks and transactions
// observed (one fixed-size entry each), not by the number of records:
// a block gossiped to five vantages with ninefold redundancy costs one
// index entry instead of ~45 retained records.
//
// The wrapped Dataset provides the vantage roster up front and the
// campaign context (chain registry, pool names, timing) at finalize
// time. Feed records live (as a bus consumer) or from a log reader
// (cmd/ethanalyze) — both produce bit-identical results because all
// state transitions depend only on per-kind record order, which the bus
// and the log preserve.
type Collector struct {
	ds         *Dataset
	vidx       map[string]int // primary vantage name -> slot
	redVantage string

	byBlock      map[types.Hash]*arrival
	blockList    []*arrival // sorted by (minTime, hash) on demand
	blocksSorted bool

	byTx   map[types.Hash]*txArrival
	txList []*txArrival // first-primary-observation (stream) order

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
		byBlock:    make(map[types.Hash]*arrival, 1024),
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
		a = &arrival{
			hash:    r.Hash,
			at:      make([]time.Duration, len(c.ds.Vantages)),
			minTime: r.At,
			minVant: vi,
		}
		c.byBlock[r.Hash] = a
		c.blockList = append(c.blockList, a)
		c.blocksSorted = false
	}
	a.observe(vi, r.At)
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
			arrival: arrival{
				hash:    r.Hash,
				at:      make([]time.Duration, len(c.ds.Vantages)),
				minTime: r.At,
				minVant: vi,
			},
			sender: r.Sender,
			nonce:  r.Nonce,
		}
		c.byTx[r.Hash] = a
		c.txList = append(c.txList, a)
	}
	a.observe(vi, r.At)
}

// BlockRecords returns how many block records the collector consumed
// (all vantages, including auxiliary ones).
func (c *Collector) BlockRecords() int { return c.blockRecords }

// TxRecords returns how many transaction records the collector consumed.
func (c *Collector) TxRecords() int { return c.txRecords }

// sortedArrivals returns per-block arrivals in ascending order of
// global first observation (ties broken by hash), the iteration order
// every block-level finalizer shares.
func (c *Collector) sortedArrivals() []*arrival {
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

// lagProfile is what Figures 1 and 2 and §III-A1 read from one arrival
// list: the paper's delay (§II) between a message's first observation
// at any primary vantage and its arrival at each remaining one, over
// the arrivals at least two vantages saw.
type lagProfile struct {
	arrivals int             // arrivals at least two vantages saw
	firsts   []int           // first observations per vantage slot
	lagsMs   *stats.Sample   // every later vantage's lag, in list order
	slotMs   []*stats.Sample // the same lags per vantage slot
	close    int             // arrivals whose runner-up trailed by < 10 ms
}

// profileLags folds the n arrivals get(0), ..., get(n-1) in that order.
// minTime is the least value in at, so no lag is negative.
func (c *Collector) profileLags(n int, get func(int) *arrival) *lagProfile {
	p := &lagProfile{
		firsts: make([]int, len(c.ds.Vantages)),
		lagsMs: stats.NewSample(n * 3),
		slotMs: make([]*stats.Sample, len(c.ds.Vantages)),
	}
	for vi := range p.slotMs {
		p.slotMs[vi] = stats.NewSample(1024)
	}
	for i := 0; i < n; i++ {
		a := get(i)
		if bits.OnesCount64(a.seen) < 2 {
			continue
		}
		p.arrivals++
		p.firsts[a.minVant]++
		second := time.Duration(math.MaxInt64)
		for vi := range a.at {
			if vi == a.minVant || a.seen&(1<<uint(vi)) == 0 {
				continue
			}
			lag := a.at[vi] - a.minTime
			second = min(second, lag)
			ms := float64(lag) / float64(time.Millisecond)
			p.lagsMs.Add(ms)
			p.slotMs[vi].Add(ms)
		}
		if second < 10*time.Millisecond {
			p.close++
		}
	}
	return p
}

// blockLags profiles the block arrivals in sortedArrivals order.
func (c *Collector) blockLags() *lagProfile {
	blocks := c.sortedArrivals()
	return c.profileLags(len(blocks), func(i int) *arrival { return blocks[i] })
}

// txLags profiles the transaction arrivals in stream order.
func (c *Collector) txLags() *lagProfile {
	return c.profileLags(len(c.txList), func(i int) *arrival { return &c.txList[i].arrival })
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
