package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/vuln"
)

const xssPage = `<?php echo $_GET['x'];`

// testEngine builds a small trained engine (one class) so jobs are fast.
// The hook, when non-nil, runs inside every (file, class) task.
func testEngine(t *testing.T, hook func(file string, class vuln.ClassID)) *core.Engine {
	t.Helper()
	eng, err := core.New(core.Options{
		Mode:     core.ModeWAPe,
		Classes:  []vuln.ClassID{vuln.XSSR},
		Seed:     1,
		TaskHook: hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Train(); err != nil {
		t.Fatal(err)
	}
	return eng
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Drain(ctx)
	})
	return s, hs
}

func postScan(t *testing.T, url string, req ScanRequest) (*http.Response, *ScanResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/scan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ScanResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode scan response: %v", err)
		}
	}
	return resp, &out
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestScanUploadedTree submits an in-body tree and checks the report comes
// back with the expected finding and a persisted artifact.
func TestScanUploadedTree(t *testing.T) {
	reportDir := t.TempDir()
	_, hs := newTestServer(t, Config{Engine: testEngine(t, nil), ReportDir: reportDir})
	resp, out := postScan(t, hs.URL, ScanRequest{
		Name:  "upload-test",
		Files: map[string]string{"a.php": xssPage},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if out.Report == nil || out.Report.Vulnerabilities == 0 {
		t.Fatalf("report missing or empty: %+v", out)
	}
	if out.Report.Degraded {
		t.Errorf("clean scan degraded: %+v", out.Report.Diagnostics)
	}
	// The artifact was persisted (atomically) under the job id.
	data, err := os.ReadFile(filepath.Join(reportDir, out.ID+".json"))
	if err != nil {
		t.Fatalf("report artifact: %v", err)
	}
	var persisted map[string]any
	if err := json.Unmarshal(data, &persisted); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
}

// TestScanDir scans a server-local directory.
func TestScanDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "page.php"), []byte(xssPage), 0o644); err != nil {
		t.Fatal(err)
	}
	_, hs := newTestServer(t, Config{Engine: testEngine(t, nil)})
	resp, out := postScan(t, hs.URL, ScanRequest{Dir: dir})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if out.Report == nil || out.Report.Vulnerabilities != 1 {
		t.Fatalf("vulnerabilities = %+v, want 1", out.Report)
	}
}

// TestScanRequestValidation rejects bodies with neither or both inputs.
func TestScanRequestValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{Engine: testEngine(t, nil)})
	for _, req := range []ScanRequest{
		{},
		{Dir: "/tmp/x", Files: map[string]string{"a.php": "x"}},
	} {
		resp, _ := postScan(t, hs.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d for %+v, want 400", resp.StatusCode, req)
		}
	}
}

// TestSaturatedQueueGets429 fills the single worker and the depth-1 queue
// with gated jobs, then asserts the next request is rejected with 429 and a
// Retry-After header — and that /readyz reports unready while saturated.
func TestSaturatedQueueGets429(t *testing.T) {
	gate := make(chan struct{})
	eng := testEngine(t, func(string, vuln.ClassID) { <-gate })
	s, hs := newTestServer(t, Config{Engine: eng, Workers: 1, QueueDepth: 1})

	type result struct {
		code int
		out  *ScanResponse
	}
	results := make(chan result, 2)
	submit := func() {
		resp, out := postScan(t, hs.URL, ScanRequest{Files: map[string]string{"a.php": xssPage}})
		results <- result{resp.StatusCode, out}
	}
	go submit() // picked up by the worker, blocked on the gate
	waitFor(t, func() bool { return s.active.Load() == 1 })
	go submit() // sits in the queue
	waitFor(t, func() bool { return len(s.queue) == 1 })

	// Queue full: admission must push back, not buffer.
	body, _ := json.Marshal(ScanRequest{Files: map[string]string{"a.php": xssPage}})
	resp, err := http.Post(hs.URL+"/scan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	var h health
	if code := getJSON(t, hs.URL+"/readyz", &h); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz = %d with a full queue, want 503", code)
	}
	if h.Ready {
		t.Error("health body claims ready while saturated")
	}

	// Release the gate: both admitted jobs complete with findings.
	close(gate)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK || r.out.Report == nil || r.out.Report.Vulnerabilities == 0 {
			t.Errorf("admitted job %d: code %d, report %+v", i, r.code, r.out.Report)
		}
	}
	if code := getJSON(t, hs.URL+"/readyz", nil); code != http.StatusOK {
		t.Errorf("/readyz = %d after the queue drained, want 200", code)
	}
}

// TestPerRequestDeadlineReturnsPartialReport gives a job a deadline shorter
// than its scan and asserts the connection answers promptly with a partial,
// degraded report instead of hanging.
func TestPerRequestDeadlineReturnsPartialReport(t *testing.T) {
	eng := testEngine(t, func(string, vuln.ClassID) { time.Sleep(80 * time.Millisecond) })
	_, hs := newTestServer(t, Config{Engine: eng})
	files := make(map[string]string)
	for i := 0; i < 20; i++ {
		files[fmt.Sprintf("f%02d.php", i)] = xssPage
	}
	start := time.Now()
	resp, out := postScan(t, hs.URL, ScanRequest{Files: files, TimeoutMS: 150})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 with a partial report", resp.StatusCode)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("deadline-bounded scan took %v; connection hung", took)
	}
	if !strings.Contains(out.Error, "deadline") {
		t.Errorf("error = %q, want a deadline explanation", out.Error)
	}
	if out.Report == nil {
		t.Fatal("deadline response carries no partial report")
	}
	if !out.Report.Degraded {
		t.Error("partial report not flagged degraded")
	}
}

// TestHealthzAlwaysServes checks liveness is independent of load.
func TestHealthzAlwaysServes(t *testing.T) {
	_, hs := newTestServer(t, Config{Engine: testEngine(t, nil)})
	var h health
	if code := getJSON(t, hs.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", code)
	}
	if h.Status != "ok" || h.Workers != DefaultWorkers || h.QueueCap != DefaultQueueDepth {
		t.Errorf("health = %+v", h)
	}
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached within 5s")
}
