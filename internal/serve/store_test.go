package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ethmeasure/internal/logs"
)

func sampleCheckpoint() logs.Checkpoint {
	return logs.Checkpoint{
		SimTimeNs:         int64(30 * time.Minute),
		BlockRecords:      1234,
		TxRecords:         5678,
		Blocks:            99,
		RecordFingerprint: "aa11",
		ChainFingerprint:  "bb22",
		WallTime:          time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
	}
}

// newJobStore returns a store under a fresh directory with job id's
// directory created, as saveJob leaves it.
func newJobStore(t *testing.T, id string) *store {
	t.Helper()
	st, err := newStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(st.jobDir(id), 0o755); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCheckpointRoundTrip: a checkpoint saved through the store's
// atomic writer loads back equal, and a job that never checkpointed
// loads none.
func TestCheckpointRoundTrip(t *testing.T) {
	st := newJobStore(t, "j000001")
	if ck, err := st.loadCheckpoint("j000001"); err != nil || ck != nil {
		t.Fatalf("no checkpoint yet: got %+v, %v", ck, err)
	}
	want := sampleCheckpoint()
	if err := st.saveCheckpoint("j000001", want); err != nil {
		t.Fatal(err)
	}
	got, err := st.loadCheckpoint("j000001")
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || *got != want {
		t.Fatalf("round trip = %+v, want %+v", got, want)
	}
}

// TestCheckpointWriteFailureLeavesNoDebris pins the atomic temp+rename
// contract on the failure path: when the final rename cannot land
// (here: the target path is an existing directory), the write must
// error, naming the job and the file, and the job directory must hold
// no leftover temp files a resume scan could mistake for state.
func TestCheckpointWriteFailureLeavesNoDebris(t *testing.T) {
	st := newJobStore(t, "j000001")
	target := filepath.Join(st.jobDir("j000001"), "checkpoint.json")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	err := st.saveCheckpoint("j000001", sampleCheckpoint())
	if err == nil {
		t.Fatal("rename onto a directory must fail")
	}
	if msg := err.Error(); !strings.Contains(msg, "j000001") || !strings.Contains(msg, target) {
		t.Errorf("error %q does not name the job and the file", msg)
	}
	entries, err := os.ReadDir(st.jobDir("j000001"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Errorf("temp file %q left behind after failed write", e.Name())
		}
	}
}

// TestCheckpointWriteFailureKeepsPrevious: a failed write must not
// disturb the previously committed checkpoint.
func TestCheckpointWriteFailureKeepsPrevious(t *testing.T) {
	st := newJobStore(t, "j000001")
	if err := st.saveCheckpoint("j000002", sampleCheckpoint()); err == nil {
		t.Fatal("write into a missing job directory must fail")
	}

	want := sampleCheckpoint()
	if err := st.saveCheckpoint("j000001", want); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: a half-written temp file next to the
	// committed checkpoint. Resume must still read the committed state.
	crash := filepath.Join(st.jobDir("j000001"), ".tmp-crash")
	if err := os.WriteFile(crash, []byte(`{"sim_`), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := st.loadCheckpoint("j000001")
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || *got != want {
		t.Fatalf("committed checkpoint disturbed: %+v", got)
	}
}

// TestCheckpointReadRejectsPartialFile: a truncated checkpoint is an
// error naming the job and the file, not an empty checkpoint.
func TestCheckpointReadRejectsPartialFile(t *testing.T) {
	st := newJobStore(t, "j000001")
	if err := st.saveCheckpoint("j000001", sampleCheckpoint()); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.jobDir("j000001"), "checkpoint.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = st.loadCheckpoint("j000001")
	if err == nil {
		t.Fatal("truncated checkpoint must not parse")
	}
	if msg := err.Error(); !strings.Contains(msg, "j000001") || !strings.Contains(msg, path) {
		t.Errorf("error %q does not name the job and the file", msg)
	}
}
