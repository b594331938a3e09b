package core

import (
	"runtime"
	"testing"
)

// builtHeapPerNode returns the live heap a built, not yet run,
// DefaultConfig campaign of the given size holds, in bytes per node.
func builtHeapPerNode(t *testing.T, nodes int) float64 {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumNodes = nodes
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(c)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(nodes)
}

// TestBuiltHeapPerNodeFlatInN: a built network's memory grows linearly
// with its size, so the heap per node at 8 000 nodes is no larger than
// at 2 000 (fixed costs amortise over more nodes). No per-node
// structure may be sized by the network, such as an index over every
// peer ID, which would make the total quadratic.
func TestBuiltHeapPerNodeFlatInN(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two large campaigns")
	}
	builtHeapPerNode(t, 200) // load process-wide caches before measuring
	small := builtHeapPerNode(t, 2000)
	large := builtHeapPerNode(t, 8000)
	t.Logf("built heap per node: %.2f KB at 2000 nodes, %.2f KB at 8000", small/1024, large/1024)
	if large > small {
		t.Fatalf("built heap per node grows with N: %.2f KB at 8000 nodes > %.2f KB at 2000", large/1024, small/1024)
	}
}
