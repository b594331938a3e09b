// Package measure implements the paper's measurement infrastructure:
// instrumented nodes at geographic vantage points that log every
// inbound network message with a local timestamp, an NTP clock-offset
// model bounding timestamp accuracy, and the record schema the
// analysis pipeline consumes (paper §II).
package measure

import (
	"math/rand"
	"time"

	"ethmeasure/internal/p2p"
	"ethmeasure/internal/sim"
	"ethmeasure/internal/types"
)

// BlockRecord is one logged block-related message reception.
type BlockRecord struct {
	Vantage string        `json:"v"`
	At      time.Duration `json:"t"` // local (offset-perturbed) time
	Hash    types.Hash    `json:"h"`
	Number  uint64        `json:"n"`
	Miner   types.PoolID  `json:"m,omitempty"` // 0 for announcements
	Parent  types.Hash    `json:"p,omitempty"`
	From    types.NodeID  `json:"f"`
	Kind    string        `json:"k"` // "block" | "announce" | "fetched"
	NTxs    int           `json:"x,omitempty"`
	Size    int           `json:"s,omitempty"`
}

// TxRecord is the first observation of a transaction at one vantage.
type TxRecord struct {
	Vantage string          `json:"v"`
	At      time.Duration   `json:"t"` // local (offset-perturbed) time
	Hash    types.Hash      `json:"h"`
	Sender  types.AccountID `json:"a"`
	Nonce   uint64          `json:"n"`
	From    types.NodeID    `json:"f"`
}

// Recorder receives measurement records. Implementations: the
// streaming analysis collector (internal/analysis) and the ethlog
// writers and record fingerprinter (internal/logs).
type Recorder interface {
	RecordBlock(BlockRecord)
	RecordTx(TxRecord)
}

// Bus is a Recorder that fans every record out to its registered
// consumers, in attach order. It is the campaign's record pipeline
// spine: the vantages write to one bus, and the streaming analysis
// collector and the optional ethlog spill writer subscribe to it. A
// bus with no consumers drops records.
type Bus struct {
	consumers []Recorder
}

var _ Recorder = (*Bus)(nil)

// NewBus creates a bus over the given consumers.
func NewBus(consumers ...Recorder) *Bus {
	b := &Bus{}
	for _, c := range consumers {
		b.Attach(c)
	}
	return b
}

// Attach registers one more consumer. Attach before records flow: the
// bus offers no replay.
func (b *Bus) Attach(c Recorder) {
	if c != nil {
		b.consumers = append(b.consumers, c)
	}
}

// RecordBlock fans a block record out to every consumer.
func (b *Bus) RecordBlock(r BlockRecord) {
	for _, c := range b.consumers {
		c.RecordBlock(r)
	}
}

// RecordTx fans a transaction record out to every consumer.
func (b *Bus) RecordTx(r TxRecord) {
	for _, c := range b.consumers {
		c.RecordTx(r)
	}
}

// ClockModel samples NTP synchronization offsets. The paper (§II,
// citing Murta et al.) takes NTP offsets to be under 10 ms in 90% of
// cases and under 100 ms in 99% of cases; the residual 1% falls in
// (100 ms, 250 ms].
type ClockModel struct {
	P10ms  float64 // probability |offset| < 10ms
	P100ms float64 // probability |offset| < 100ms
	MaxOff time.Duration
}

// DefaultClockModel returns the paper-calibrated NTP offset model.
func DefaultClockModel() ClockModel {
	return ClockModel{P10ms: 0.90, P100ms: 0.99, MaxOff: 250 * time.Millisecond}
}

// Sample draws a signed clock offset for one machine.
func (c ClockModel) Sample(rng *rand.Rand) time.Duration {
	sign := time.Duration(1)
	if rng.Intn(2) == 0 {
		sign = -1
	}
	u := rng.Float64()
	var mag time.Duration
	switch {
	case u < c.P10ms:
		mag = time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
	case u < c.P100ms:
		mag = 10*time.Millisecond + time.Duration(rng.Int63n(int64(90*time.Millisecond)))
	default:
		span := c.MaxOff - 100*time.Millisecond
		if span <= 0 {
			span = time.Millisecond
		}
		mag = 100*time.Millisecond + time.Duration(rng.Int63n(int64(span)))
	}
	return sign * mag
}

// OffsetWindow is how often a vantage's NTP offset is resampled: real
// NTP clients oscillate around true time as they discipline the local
// clock, so the offset varies over a campaign rather than staying
// fixed.
const OffsetWindow = 2 * time.Minute

// Vantage is one instrumented measurement node: a p2p observer that
// stamps every inbound message with a local clock reading and logs it.
type Vantage struct {
	Name     string
	recorder Recorder

	clock  ClockModel
	rng    *rand.Rand
	window int64         // index of the current OffsetWindow, -1 before the first
	offset time.Duration // the offset sampled for window
}

var _ p2p.Observer = (*Vantage)(nil)

// NewVantage creates a vantage whose clock follows the given NTP model,
// writing records to recorder. The seed makes offset evolution
// deterministic per vantage.
func NewVantage(name string, clock ClockModel, seed int64, recorder Recorder) *Vantage {
	return &Vantage{
		Name:     name,
		recorder: recorder,
		clock:    clock,
		rng:      rand.New(rand.NewSource(seed)),
		window:   -1,
	}
}

// Offset returns the machine's clock offset in effect at virtual time
// at. Offsets are sampled lazily, one per OffsetWindow that is queried,
// in window order, so they are deterministic. Calls must come in
// non-decreasing time order, as observations do (every Observe* call
// passes the engine's current time): only the current window's offset
// is kept.
func (v *Vantage) Offset(at sim.Time) time.Duration {
	if w := int64(at / OffsetWindow); w != v.window {
		if w < v.window {
			panic("measure: Vantage.Offset queried out of time order")
		}
		v.window, v.offset = w, v.clock.Sample(v.rng)
	}
	return v.offset
}

// local converts simulation time to this machine's clock reading.
func (v *Vantage) local(at sim.Time) time.Duration { return at + v.Offset(at) }

// ObserveBlock logs a full or fetched block reception.
func (v *Vantage) ObserveBlock(at sim.Time, b *types.Block, from types.NodeID, kind p2p.MsgKind) {
	v.recorder.RecordBlock(BlockRecord{
		Vantage: v.Name,
		At:      v.local(at),
		Hash:    b.Hash,
		Number:  b.Number,
		Miner:   b.Miner,
		Parent:  b.ParentHash,
		From:    from,
		Kind:    kind.String(),
		NTxs:    len(b.TxHashes),
		Size:    b.Size,
	})
}

// ObserveAnnounce logs a block-hash announcement reception.
func (v *Vantage) ObserveAnnounce(at sim.Time, h types.Hash, number uint64, from types.NodeID) {
	v.recorder.RecordBlock(BlockRecord{
		Vantage: v.Name,
		At:      v.local(at),
		Hash:    h,
		Number:  number,
		From:    from,
		Kind:    p2p.MsgAnnounce.String(),
		Size:    types.AnnouncementSize,
	})
}

// ObserveTx logs the first observation of each transaction. The node
// delivers only that one (see p2p.Observer), so every call is logged.
func (v *Vantage) ObserveTx(at sim.Time, tx *types.Transaction, from types.NodeID) {
	v.recorder.RecordTx(TxRecord{
		Vantage: v.Name,
		At:      v.local(at),
		Hash:    tx.Hash,
		Sender:  tx.Sender,
		Nonce:   tx.Nonce,
		From:    from,
	})
}

// MachineSpec describes one measurement machine (paper Table I).
type MachineSpec struct {
	Location      string
	CPU           string
	RAMGB         int
	BandwidthGbps int
}

// PaperInfrastructure returns the paper's Table I machine specs.
func PaperInfrastructure() []MachineSpec {
	return []MachineSpec{
		{Location: "NA", CPU: "4x Intel Xeon 2.3 GHz", RAMGB: 15, BandwidthGbps: 8},
		{Location: "EA", CPU: "4x Intel Xeon 2.3 GHz", RAMGB: 15, BandwidthGbps: 8},
		{Location: "CE", CPU: "4x Intel Xeon 2.4 GHz", RAMGB: 8, BandwidthGbps: 10},
		{Location: "WE", CPU: "40x Intel Xeon 2.2 GHz", RAMGB: 128, BandwidthGbps: 10},
	}
}
