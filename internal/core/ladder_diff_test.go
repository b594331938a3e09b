package core

import (
	"context"
	"runtime"
	"testing"
)

// TestLadderHeapEquivalenceVariants is the campaign-level check of the
// ladder queue: every equivalence variant, run on the engine's ladder,
// must reproduce the record and chain fingerprints pinned in
// goldenPath. Those lines were dumped when the engine could still run
// on the reference binary heap, and both queues produced them, so a
// ladder that pops any event out of (at, seq) order fails here, naming
// the variant. The heap itself now lives only in the internal/sim test
// files, where TestLadderMatchesRefHeap and FuzzQueueOrder compare the
// two queues operation by operation.
func TestLadderHeapEquivalenceVariants(t *testing.T) {
	if !goldenPlatform() {
		t.Skipf("%s holds linux/amd64's fingerprints, this is %s/%s", goldenPath, runtime.GOOS, runtime.GOARCH)
	}
	golden := goldenFingerprints(t)
	for _, variant := range equivalenceVariants() {
		variant := variant
		t.Run(variant.name, func(t *testing.T) {
			campaign, err := NewCampaign(variant.cfg)
			if err != nil {
				t.Fatal(err)
			}
			hasher := newRecordHasher()
			campaign.bus.Attach(hasher)
			if _, err := campaign.RunContext(context.Background(), RunOptions{}); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, golden, variant.name, hasher.Sum(), chainFingerprint(campaign))
		})
	}
}
