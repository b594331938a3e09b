package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T) (*httptest.Server, *Manager) {
	t.Helper()
	m := openManager(t, t.TempDir(), Options{MaxJobs: 1})
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(func() {
		ts.Close()
		m.Close()
	})
	return ts, m
}

func postJob(t *testing.T, ts *httptest.Server, spec JobSpec) Job {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /v1/jobs: status %d", resp.StatusCode)
	}
	var job Job
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatalf("decode job: %v", err)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+job.ID {
		t.Errorf("Location = %q", loc)
	}
	return job
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp
}

func TestHTTPSubmitStatusAndStream(t *testing.T) {
	ts, _ := newTestServer(t)

	job := postJob(t, ts, quickSpec())
	if job.State != StateQueued {
		t.Errorf("submitted state = %s", job.State)
	}

	// Stream until terminal; every line is a whole Job snapshot.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream Content-Type = %q", ct)
	}
	var last Job
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("stream line %d: %v", lines, err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if lines == 0 {
		t.Fatal("stream produced no snapshots")
	}
	if last.State != StateDone {
		t.Errorf("final streamed state = %s (error %q)", last.State, last.Error)
	}
	if len(last.Metrics) == 0 || last.Fingerprints == nil {
		t.Error("final snapshot missing metrics or fingerprints")
	}

	// Status endpoint agrees.
	var got Job
	if resp := getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job: status %d", resp.StatusCode)
	}
	if got.State != StateDone {
		t.Errorf("status state = %s", got.State)
	}

	// List contains it.
	var list struct {
		Jobs []Job `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != job.ID {
		t.Errorf("list = %+v", list.Jobs)
	}
}

func TestHTTPCancel(t *testing.T) {
	ts, m := newTestServer(t)

	long := slowSpec()
	long.Duration = "12h"
	job := postJob(t, ts, long)
	waitJob(t, m, job.ID, time.Minute, isState(StateRunning))

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: status %d", resp.StatusCode)
	}
	final := waitJob(t, m, job.ID, time.Minute, func(j Job) bool { return terminal(j.State) })
	if final.State != StateCancelled {
		t.Errorf("state after cancel = %s", final.State)
	}

	// A second cancel conflicts.
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("second DELETE: status %d, want 409", resp.StatusCode)
	}
}

func TestHTTPValidationAndNotFound(t *testing.T) {
	ts, _ := newTestServer(t)

	bad := []string{
		`{"kind":"banana"}`,
		`{"kind":"campaign","sweep":{}}`,
		`{"kind":"campaign","protocol":"pow2"}`,
		`{"kind":"campaign","scenarios":["mayhem"]}`,
		`{"kind":"campaign","duration":"fast"}`,
		`{"kind":"campaign","nodes":-5}`,
		`{"kind":"sweep","sweep":{"nodes":[-1]}}`,
		`{"kind":"sweep","sweep":{"nodes":[20,20]}}`,
		`{"kind":"sweep","sweep":{"seeds":4611686018427387904}}`,
		`{"kind":"campaign","nodes":100000000}`,
		`{"kind":"sweep","sweep":{"nodes":[40,100000000]}}`,
		`{"kind":"campaign","bogus_field":1}`, // unknown fields rejected
		`{invalid json`,
	}
	for _, body := range bad {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Errorf("%s: error body not JSON: %v", body, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error message", body)
		}
	}

	for _, url := range []string{"/v1/jobs/j999999", "/v1/jobs/j999999/stream"} {
		if resp := getJSON(t, ts.URL+url, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", url, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/j999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown: status %d, want 404", resp.StatusCode)
	}
}

// postRaw submits a raw body to POST /v1/jobs and returns the status
// and the decoded error message.
func postRaw(t *testing.T, ts *httptest.Server, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Errorf("error body not JSON: %v", err)
	}
	return resp.StatusCode, e.Error
}

// TestHTTPSubmitRejectsTrailingData: a body must hold exactly one job
// spec; anything after the first JSON value is a 400 and submits
// nothing.
func TestHTTPSubmitRejectsTrailingData(t *testing.T) {
	ts, _ := newTestServer(t)
	spec, err := json.Marshal(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{
		string(spec) + " garbage",
		string(spec) + string(spec),
		string(spec) + "{}",
	} {
		if status, msg := postRaw(t, ts, body); status != http.StatusBadRequest || msg == "" {
			t.Errorf("%.40s...: status %d (%q), want 400", body[len(spec):], status, msg)
		}
	}
	var list struct {
		Jobs []Job `json:"jobs"`
	}
	getJSON(t, ts.URL+"/v1/jobs", &list)
	if len(list.Jobs) != 0 {
		t.Errorf("rejected bodies submitted %d jobs", len(list.Jobs))
	}
	// Trailing whitespace is not data.
	if status, msg := postRaw(t, ts, string(spec)+"\n"); status != http.StatusCreated {
		t.Errorf("spec with trailing newline: status %d (%q), want 201", status, msg)
	}
}

// TestHTTPSubmitBodyTooLarge: a body over the 1 MiB cap is a 413,
// even when the spec inside it would be valid.
func TestHTTPSubmitBodyTooLarge(t *testing.T) {
	ts, _ := newTestServer(t)
	spec, err := json.Marshal(quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	body := strings.Repeat(" ", maxSubmitBytes) + string(spec)
	if status, msg := postRaw(t, ts, body); status != http.StatusRequestEntityTooLarge || msg == "" {
		t.Errorf("oversized body: status %d (%q), want 413", status, msg)
	}
}

func TestHTTPCatalogVersionHealthz(t *testing.T) {
	ts, _ := newTestServer(t)

	var cat struct {
		Scenarios []catalogEntry `json:"scenarios"`
		Protocols []catalogEntry `json:"protocols"`
	}
	getJSON(t, ts.URL+"/v1/catalog", &cat)
	if len(cat.Scenarios) == 0 || len(cat.Protocols) == 0 {
		t.Errorf("catalog = %d scenarios, %d protocols", len(cat.Scenarios), len(cat.Protocols))
	}
	names := make(map[string]bool)
	for _, p := range cat.Protocols {
		names[p.Name] = true
	}
	if !names["ethereum"] {
		t.Errorf("catalog protocols missing ethereum: %v", cat.Protocols)
	}

	var ver struct {
		GoVersion string `json:"go_version"`
	}
	getJSON(t, ts.URL+"/v1/version", &ver)
	if ver.GoVersion == "" {
		t.Error("version response missing go_version")
	}

	var health struct {
		Status string `json:"status"`
	}
	if resp := getJSON(t, ts.URL+"/v1/healthz", &health); resp.StatusCode != http.StatusOK || health.Status != "ok" {
		t.Errorf("healthz = %d %q", resp.StatusCode, health.Status)
	}
}

func TestHTTPStreamObservesProgress(t *testing.T) {
	if testing.Short() {
		t.Skip("streams a multi-second campaign; covered by the CI race job")
	}
	ts, _ := newTestServer(t)

	job := postJob(t, ts, slowSpec())
	resp, err := http.Get(ts.URL + "/v1/jobs/" + job.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// A job slow enough to checkpoint must stream at least one
	// intermediate snapshot with live progress before the terminal one.
	sawProgress := false
	var last Job
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
		if !terminal(last.State) && last.Progress != nil && last.Progress.SimTime > 0 {
			sawProgress = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if last.State != StateDone {
		t.Fatalf("final state = %s (error %q)", last.State, last.Error)
	}
	if !sawProgress {
		t.Error("stream never showed intermediate progress")
	}
	if last.Checkpoint == nil {
		t.Error("final snapshot has no checkpoint")
	}
	if last.Progress == nil || last.Progress.SimTime != last.Progress.Duration {
		t.Errorf("final progress = %+v", last.Progress)
	}
}
