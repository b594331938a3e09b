package core

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// goldenPath holds the model revision the fingerprints were recorded
// under, one revisionLine, and the record and chain fingerprint of
// every equivalence variant, one fingerprintLine each.
// TestStreamingEquivalence and TestLadderHeapEquivalenceVariants
// compare against it, so a change to the model shows as a diff of this
// file, which must bump ModelRevision with it; TestFingerprintDump
// rewrites it.
const goldenPath = "testdata/fingerprints.golden"

// analysisGoldenPath pins what the analyses output: one analysisLine
// per equivalence variant, from its live Results. TestStreamingEquivalence
// compares against it, so a change to an analysis shows as a diff of
// this file even where the log re-analysis agrees with the live run.
// ModelRevision versions the simulation and its records, not their
// analysis: a change that alters an analysis on purpose rewrites this
// file in its own diff (TestFingerprintDump) and keeps ModelRevision.
const analysisGoldenPath = "testdata/analysis.golden"

// revisionLine is goldenPath's line for the model revision.
func revisionLine(rev int) string { return fmt.Sprintf("REV %d", rev) }

// goldenPlatform reports whether this build can reproduce the golden
// fingerprints. They were recorded on linux/amd64; on other
// architectures the compiler may fuse a multiply and an add into one
// instruction, which rounds differently and changes the run.
func goldenPlatform() bool { return runtime.GOOS == "linux" && runtime.GOARCH == "amd64" }

func fingerprintLine(name, rec, chain string) string {
	return fmt.Sprintf("FP %-16s rec=%s chain=%s", name, rec, chain)
}

// analysisLine digests one variant's analyses: the SHA-256 of every
// analysisJSON field, taken in Results field order, and the
// KeyMetrics JSON (sorted keys).
func analysisLine(t *testing.T, name string, res *Results) string {
	t.Helper()
	fields := analysisJSON(t, res)
	h := sha256.New()
	tp := reflect.TypeOf(*res)
	for i := 0; i < tp.NumField(); i++ {
		if data, ok := fields[tp.Field(i).Name]; ok {
			fmt.Fprintf(h, "%s=%s\n", tp.Field(i).Name, data)
		}
	}
	metrics, err := json.Marshal(res.KeyMetrics())
	if err != nil {
		t.Fatalf("marshal KeyMetrics: %v", err)
	}
	return fmt.Sprintf("AN %-16s sha=%x metrics=%s", name, h.Sum(nil), metrics)
}

// goldenAnalyses reads analysisGoldenPath into a map from variant name
// to its analysisLine.
func goldenAnalyses(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(analysisGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || f[0] != "AN" {
			t.Fatalf("%s: malformed line %q", analysisGoldenPath, line)
		}
		golden[f[1]] = line
	}
	return golden
}

// checkAnalysisGolden fails t, naming the variant, unless its analyses
// digest to its line in golden.
func checkAnalysisGolden(t *testing.T, golden map[string]string, name string, res *Results) {
	t.Helper()
	got := analysisLine(t, name, res)
	if want, ok := golden[name]; !ok {
		t.Errorf("variant %s has no line in %s; rewrite it with FINGERPRINT_DUMP=1", name, analysisGoldenPath)
	} else if got != want {
		t.Errorf("variant %s changed its analysis output; if the change is intended, rewrite %s with FINGERPRINT_DUMP=1\ngot:  %s\nwant: %s", name, analysisGoldenPath, got, want)
	}
}

// goldenFingerprints reads goldenPath into a map from variant name to
// its fingerprintLine, and from "REV" to its revisionLine.
func goldenFingerprints(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	golden := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		switch f := strings.Fields(line); {
		case len(f) == 2 && f[0] == "REV":
			golden["REV"] = line
		case len(f) == 4 && f[0] == "FP":
			golden[f[1]] = line
		default:
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
	}
	return golden
}

// checkGolden fails t, naming the variant, unless its record and chain
// fingerprints equal its line in golden, and unless golden was recorded
// under this ModelRevision.
func checkGolden(t *testing.T, golden map[string]string, name, rec, chain string) {
	t.Helper()
	if got, want := golden["REV"], revisionLine(ModelRevision); got != want {
		t.Errorf("%s records %q, but ModelRevision is %d: a model change rewrites the file and bumps ModelRevision together", goldenPath, got, ModelRevision)
	}
	got := fingerprintLine(name, rec, chain)
	if want, ok := golden[name]; !ok {
		t.Errorf("variant %s has no line in %s; rewrite it with FINGERPRINT_DUMP=1", name, goldenPath)
	} else if got != want {
		t.Errorf("variant %s changed its run; if the model change is intended, rewrite %s with FINGERPRINT_DUMP=1\ngot:  %s\nwant: %s", name, goldenPath, got, want)
	}
}

// TestFingerprintDump prints the record and chain fingerprints and the
// analysis digest of every equivalence variant when FINGERPRINT_DUMP is
// set, and rewrites goldenPath and analysisGoldenPath with them on
// linux/amd64. It needs the full variant list, so it refuses -short.
// A change to the model bumps ModelRevision and rewrites both files; a
// change to an analysis alone rewrites analysisGoldenPath only.
func TestFingerprintDump(t *testing.T) {
	if os.Getenv("FINGERPRINT_DUMP") == "" {
		t.Skip("set FINGERPRINT_DUMP=1 to dump fingerprints and rewrite " + goldenPath)
	}
	if testing.Short() {
		t.Fatal("-short drops equivalence variants; dump without it")
	}
	var out, analyses strings.Builder
	out.WriteString(revisionLine(ModelRevision) + "\n")
	for _, variant := range equivalenceVariants() {
		campaign, err := NewCampaign(variant.cfg)
		if err != nil {
			t.Fatal(err)
		}
		hasher := newRecordHasher()
		campaign.bus.Attach(hasher)
		res, err := campaign.RunContext(context.Background(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		line := fingerprintLine(variant.name, hasher.Sum(), chainFingerprint(campaign))
		fmt.Println(line)
		out.WriteString(line + "\n")
		analyses.WriteString(analysisLine(t, variant.name, res) + "\n")
	}
	if !goldenPlatform() {
		t.Logf("not rewriting %s and %s: they hold linux/amd64's runs, this is %s/%s", goldenPath, analysisGoldenPath, runtime.GOOS, runtime.GOARCH)
		return
	}
	if err := os.WriteFile(goldenPath, []byte(out.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(analysisGoldenPath, []byte(analyses.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}
