package measure

import (
	"testing"
	"time"
)

func TestBusFansOut(t *testing.T) {
	a, b := NewMemoryRecorder(), NewMemoryRecorder()
	bus := NewBus(a)
	bus.Attach(b)
	bus.Attach(nil) // must be ignored
	if len(bus.consumers) != 2 {
		t.Fatalf("consumers = %d, want 2", len(bus.consumers))
	}

	bus.RecordBlock(BlockRecord{Vantage: "NA", Hash: 5, Number: 10, Kind: "block"})
	bus.RecordTx(TxRecord{Vantage: "EA", Hash: 7, Sender: 1, Nonce: 2})
	bus.RecordBlock(BlockRecord{Vantage: "EA", Hash: 5, Number: 10, Kind: "announce"})

	for name, rec := range map[string]*MemoryRecorder{"a": a, "b": b} {
		if len(rec.Blocks) != 2 || len(rec.Txs) != 1 {
			t.Fatalf("%s: blocks=%d txs=%d, want 2/1", name, len(rec.Blocks), len(rec.Txs))
		}
	}
	// Consumers see identical streams in identical order.
	for i := range a.Blocks {
		if a.Blocks[i] != b.Blocks[i] {
			t.Fatalf("block %d diverged: %+v vs %+v", i, a.Blocks[i], b.Blocks[i])
		}
	}
	if a.Txs[0] != b.Txs[0] {
		t.Fatal("tx records diverged")
	}
}

func TestBusEmptyDropsRecords(t *testing.T) {
	bus := NewBus()
	// Must not panic with zero consumers.
	bus.RecordBlock(BlockRecord{Vantage: "NA", Hash: 1})
	bus.RecordTx(TxRecord{Vantage: "NA", Hash: 2})
}

func TestVantageWritesThroughBus(t *testing.T) {
	rec := NewMemoryRecorder()
	bus := NewBus(rec)
	v := NewVantage("WE", ClockModel{P10ms: 1, P100ms: 1, MaxOff: time.Millisecond}, 1, bus)
	v.ObserveAnnounce(time.Second, 9, 101, 3)
	if len(rec.Blocks) != 1 || rec.Blocks[0].Kind != "announce" {
		t.Fatalf("bus-backed vantage records = %+v", rec.Blocks)
	}
}

// MemoryRecorder accumulates records in memory, for the tests to
// inspect.
type MemoryRecorder struct {
	Blocks []BlockRecord
	Txs    []TxRecord
}

// NewMemoryRecorder creates an empty in-memory recorder.
func NewMemoryRecorder() *MemoryRecorder { return &MemoryRecorder{} }

// RecordBlock appends a block record.
func (m *MemoryRecorder) RecordBlock(r BlockRecord) { m.Blocks = append(m.Blocks, r) }

// RecordTx appends a transaction record.
func (m *MemoryRecorder) RecordTx(r TxRecord) { m.Txs = append(m.Txs, r) }
