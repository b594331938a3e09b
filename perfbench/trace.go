package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// span is one traced interval. Parent is the id of the span that
// caused it (0 for a root).
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	StartMs float64 `json:"start_ms"`
	WallMs  float64 `json:"wall_ms"`
	CPUMs   float64 `json:"cpu_ms"`

	start time.Time
	cpu0  time.Duration
}

// tick is one read-only progress sample of a traced campaign, taken
// every virtual minute.
type tick struct {
	VirtualMin float64 `json:"virtual_min"`
	CPUMs      float64 `json:"cpu_ms"`
	Events     uint64  `json:"events"`
	Pending    int     `json:"pending"`
	HeapMB     float64 `json:"heap_alloc_mb"`
}

// tracer keeps spans and ticks in memory and writes them out when the
// run ends. A nil tracer records nothing, so untraced runs pass nil.
type tracer struct {
	t0    time.Time
	spans []span
	ticks []tick
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartMs: ms(now.Sub(t.t0)), start: now, cpu0: processCPU(),
	})
	return len(t.spans)
}

// end closes span id and returns its CPU time.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	s := &t.spans[id-1]
	cpu := processCPU() - s.cpu0
	s.WallMs = ms(time.Since(s.start))
	s.CPUMs = ms(cpu)
	return cpu
}

func (t *tracer) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(map[string]any{"span": t.spans[i]}); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	for i := range t.ticks {
		if err := enc.Encode(map[string]any{"tick": t.ticks[i]}); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
