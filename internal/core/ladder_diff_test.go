package core

import (
	"reflect"
	"testing"

	"ethmeasure/internal/sim"
)

// ladderFingerprint runs one campaign under the currently selected
// queue implementation and returns every determinism surface: the raw
// record stream hash, the chain registry hash, the serialized analysis
// results and the headline metrics.
func ladderFingerprint(t *testing.T, cfg Config) (rec, chain string, analysis map[string]string, metrics map[string]float64) {
	t.Helper()
	campaign, err := NewCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hasher := newRecordHasher()
	campaign.AttachRecorder(hasher)
	res, err := campaign.Run()
	if err != nil {
		t.Fatal(err)
	}
	return hasher.Sum(), chainFingerprint(campaign), analysisJSON(t, res), res.KeyMetrics()
}

// diffQueueImpls runs cfg once on the ladder queue and once on the
// reference binary heap and requires bit-identical outputs on every
// surface. Both queues realize the same unique (at, seq) total order,
// so any divergence is a ladder ordering bug.
func diffQueueImpls(t *testing.T, cfg Config) {
	t.Helper()
	orig := sim.CurrentQueueImpl()
	defer sim.SetQueueImpl(orig)

	sim.SetQueueImpl(sim.QueueLadder)
	recL, chainL, jsonL, kmL := ladderFingerprint(t, cfg)
	sim.SetQueueImpl(sim.QueueRefHeap)
	recH, chainH, jsonH, kmH := ladderFingerprint(t, cfg)

	if recL != recH {
		t.Errorf("record streams diverged:\nladder: %s\nheap:   %s", recL, recH)
	}
	if chainL != chainH {
		t.Errorf("chains diverged:\nladder: %s\nheap:   %s", chainL, chainH)
	}
	for name, h := range jsonH {
		if l := jsonL[name]; l != h {
			t.Errorf("%s diverged:\nladder: %.200s\nheap:   %.200s", name, l, h)
		}
	}
	if !reflect.DeepEqual(kmL, kmH) {
		t.Errorf("KeyMetrics diverged:\nladder: %v\nheap:   %v", kmL, kmH)
	}
}

// TestLadderHeapEquivalenceVariants is the campaign-level differential
// suite for the ladder queue: every equivalence variant (the same
// roster the streaming suite proves) must produce bit-identical
// records, chains and analyses whether engines run on the ladder or on
// the reference heap.
func TestLadderHeapEquivalenceVariants(t *testing.T) {
	for _, variant := range equivalenceVariants() {
		variant := variant
		t.Run(variant.name, func(t *testing.T) {
			diffQueueImpls(t, variant.cfg)
		})
	}
}
