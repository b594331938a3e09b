package core

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
)

// goldenPath holds the record and chain fingerprint of every
// equivalence variant, one fingerprintLine each. TestStreamingEquivalence
// and TestLadderHeapEquivalenceVariants compare against it, so a change
// to the model shows as a diff of this file; TestFingerprintDump
// rewrites it.
const goldenPath = "testdata/fingerprints.golden"

// goldenPlatform reports whether this build can reproduce the golden
// fingerprints. They were recorded on linux/amd64; on other
// architectures the compiler may fuse a multiply and an add into one
// instruction, which rounds differently and changes the run.
func goldenPlatform() bool { return runtime.GOOS == "linux" && runtime.GOARCH == "amd64" }

func fingerprintLine(name, rec, chain string) string {
	return fmt.Sprintf("FP %-16s rec=%s chain=%s", name, rec, chain)
}

// goldenFingerprints reads goldenPath into a map from variant name to
// its fingerprintLine.
func goldenFingerprints(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != "FP" {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		golden[f[1]] = line
	}
	return golden
}

// checkGolden fails t, naming the variant, unless its record and chain
// fingerprints equal its line in golden.
func checkGolden(t *testing.T, golden map[string]string, name, rec, chain string) {
	t.Helper()
	got := fingerprintLine(name, rec, chain)
	if want, ok := golden[name]; !ok {
		t.Errorf("variant %s has no line in %s; rewrite it with FINGERPRINT_DUMP=1", name, goldenPath)
	} else if got != want {
		t.Errorf("variant %s changed its run; if the model change is intended, rewrite %s with FINGERPRINT_DUMP=1\ngot:  %s\nwant: %s", name, goldenPath, got, want)
	}
}

// TestFingerprintDump prints the record and chain fingerprints of every
// equivalence variant when FINGERPRINT_DUMP is set, and rewrites
// goldenPath with them on linux/amd64. It needs the full variant list,
// so it refuses -short.
func TestFingerprintDump(t *testing.T) {
	if os.Getenv("FINGERPRINT_DUMP") == "" {
		t.Skip("set FINGERPRINT_DUMP=1 to dump fingerprints and rewrite " + goldenPath)
	}
	if testing.Short() {
		t.Fatal("-short drops equivalence variants; dump without it")
	}
	var out strings.Builder
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
		line := fingerprintLine(variant.name, hasher.Sum(), chainFingerprint(campaign))
		fmt.Println(line)
		out.WriteString(line + "\n")
	}
	if !goldenPlatform() {
		t.Logf("not rewriting %s: its fingerprints are linux/amd64's, this is %s/%s", goldenPath, runtime.GOOS, runtime.GOARCH)
		return
	}
	if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
