package core

import (
	"context"
	"fmt"
	"os"
	"testing"
)

// TestFingerprintDump prints the record and chain fingerprints of every
// equivalence variant when FINGERPRINT_DUMP is set. It is the manual
// harness behind cross-commit bit-identity checks: capture the output
// at a known-good commit, re-run after a refactor, diff.
func TestFingerprintDump(t *testing.T) {
	if os.Getenv("FINGERPRINT_DUMP") == "" {
		t.Skip("set FINGERPRINT_DUMP=1 to dump fingerprints")
	}
	for _, variant := range equivalenceVariants() {
		campaign, err := NewCampaign(variant.cfg)
		if err != nil {
			t.Fatal(err)
		}
		hasher := newRecordHasher()
		campaign.bus.Attach(hasher)
		if _, err := campaign.RunContext(context.Background(), RunOptions{}); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("FP %-16s rec=%s chain=%s\n", variant.name, hasher.Sum(), chainFingerprint(campaign))
	}
}
