package server

// Durability coverage: the async job API, the write-ahead journal behind it,
// and the tentpole claim — a process killed at ANY journal record boundary
// resumes on the next start and produces a report byte-identical to an
// uninterrupted run. The kill is simulated by truncating a finished job's
// journal to every record prefix (the journal is append-only, so every crash
// instant IS some record prefix plus at most one torn line) and starting a
// fresh server on it.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/journal"
	"repro/internal/report"
	"repro/internal/resultstore"
	"repro/internal/vuln"
)

// parEngine is testEngine with an explicit scan parallelism, so the
// determinism suites can prove resume byte-identity is scheduling-independent.
func parEngine(t *testing.T, parallelism int, hook func(file string, class vuln.ClassID)) *core.Engine {
	t.Helper()
	eng, err := core.New(core.Options{
		Mode:        core.ModeWAPe,
		Classes:     []vuln.ClassID{vuln.XSSR},
		Seed:        1,
		Parallelism: parallelism,
		TaskHook:    hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Train(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// postAsync submits an async scan and returns the 202 body.
func postAsync(t *testing.T, url string, req ScanRequest) JobStatus {
	t.Helper()
	req.Async = true
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/scan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit = %d, want 202", resp.StatusCode)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Status != StatusQueued {
		t.Fatalf("202 body = %+v", st)
	}
	return st
}

// pollJobDone polls GET /jobs/{id} until the job is done.
func pollJobDone(t *testing.T, url, id string) JobStatus {
	t.Helper()
	var st JobStatus
	waitFor(t, func() bool {
		return getJSON(t, url+"/jobs/"+id, &st) == http.StatusOK && st.Status == StatusDone
	})
	return st
}

// normalizeReport strips the fields documented to vary between an executed
// and a resumed scan — Stats and wall-clock duration — and returns the rest
// as canonical bytes. Everything else must be byte-identical.
func normalizeReport(t *testing.T, rep *report.JSONReport) string {
	t.Helper()
	if rep == nil {
		t.Fatal("no report to normalize")
	}
	cp := *rep
	cp.Stats = nil
	cp.DurationMS = 0
	data, err := json.Marshal(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// journalParts reads a journal file and splits it into the header line and
// one line per record, each terminated.
func journalParts(t *testing.T, path string) (string, []string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "wapd-journal-v1") {
		t.Fatalf("journal %s has no header: %q", path, data)
	}
	records := lines[1:]
	if n := len(records); n > 0 && records[n-1] == "" {
		records = records[:n-1]
	}
	return lines[0], records
}

func openJournalT(t *testing.T, path string) *journal.Journal {
	t.Helper()
	jnl, _, err := journal.Open(path, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl.Close() })
	return jnl
}

// TestAsyncJobLifecycle pins the job API: async submit answers 202
// immediately, the job is polled through queued/running to done, the result
// carries the full report, and sync requests are untouched by any of it.
func TestAsyncJobLifecycle(t *testing.T) {
	_, hs := newTestServer(t, Config{Engine: testEngine(t, nil)})

	acc := postAsync(t, hs.URL, ScanRequest{Name: "async-app", Files: map[string]string{"a.php": xssPage}})
	st := pollJobDone(t, hs.URL, acc.ID)
	if st.Result == nil || st.Result.Report == nil {
		t.Fatalf("done job carries no result: %+v", st)
	}
	if st.Result.Report.Vulnerabilities != 1 {
		t.Errorf("vulnerabilities = %d, want 1", st.Result.Report.Vulnerabilities)
	}
	if st.Result.Error != "" {
		t.Errorf("async job error = %q", st.Result.Error)
	}

	// Unknown job IDs are 404, not empty statuses.
	if code := getJSON(t, hs.URL+"/jobs/job-999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", code)
	}
	if code := getJSON(t, hs.URL+"/jobs/", nil); code != http.StatusNotFound {
		t.Errorf("empty job id = %d, want 404", code)
	}

	// Sync path unchanged: same request without async answers 200 + report.
	resp, out := postScan(t, hs.URL, ScanRequest{Files: map[string]string{"a.php": xssPage}})
	if resp.StatusCode != http.StatusOK || out.Report == nil {
		t.Errorf("sync scan = %d, report %v", resp.StatusCode, out.Report != nil)
	}
}

// TestCrashResumeByteIdentical is the tentpole acceptance test. It runs a
// durable async job to completion, then simulates SIGKILL at every journal
// record boundary: for each K-record prefix of the finished journal, a fresh
// server opens a journal holding exactly that prefix, replays it, resumes the
// job, and must produce a report byte-identical (Stats and duration
// normalized) to the uninterrupted run — at more than one engine parallelism.
func TestCrashResumeByteIdentical(t *testing.T) {
	files := map[string]string{
		"a.php":     `<?php echo $_GET['a'];`,
		"b.php":     `<?php echo $_POST['b'];`,
		"c.php":     `<?php echo $_COOKIE['c'];`,
		"clean.php": `<?php $x = 1; echo "static";`,
	}
	for _, par := range []int{1, 3} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			eng := parEngine(t, par, nil)
			dir := t.TempDir()
			reportDir := filepath.Join(dir, "reports")
			store, err := resultstore.Open(filepath.Join(dir, "store"))
			if err != nil {
				t.Fatal(err)
			}
			jpath := filepath.Join(dir, "wapd.journal")
			jnlA := openJournalT(t, jpath)
			cfg := func(jnl *journal.Journal) Config {
				return Config{
					Engine: eng, Workers: 1, Journal: jnl, Store: store,
					ReportDir: reportDir,
				}
			}
			_, hsA := newTestServer(t, cfg(jnlA))
			acc := postAsync(t, hsA.URL, ScanRequest{Name: "app", Files: files})
			done := pollJobDone(t, hsA.URL, acc.ID)
			if done.Result.Report.Vulnerabilities == 0 {
				t.Fatal("corpus produced no findings; identity check is vacuous")
			}
			baseline := normalizeReport(t, done.Result.Report)

			header, records := journalParts(t, jpath)
			var kinds []string
			for _, line := range records {
				kinds = append(kinds, recordKind(line))
			}
			if got := strings.Join(kinds, ","); got != "accepted,started,done" {
				t.Fatalf("finished journal holds %s, want accepted,started,done", got)
			}

			for k := 1; k <= len(records); k++ {
				t.Run(fmt.Sprintf("kill-after-record-%d", k), func(t *testing.T) {
					ppath := filepath.Join(dir, fmt.Sprintf("prefix-%d-%d.journal", par, k))
					if err := os.WriteFile(ppath, []byte(header+strings.Join(records[:k], "")), 0o644); err != nil {
						t.Fatal(err)
					}
					jnl := openJournalT(t, ppath)
					_, hs := newTestServer(t, cfg(jnl))
					st := pollJobDone(t, hs.URL, acc.ID)
					if k >= 2 && k < len(records) && st.Resumes < 1 {
						t.Errorf("resumed job reports %d resumes, want >= 1", st.Resumes)
					}
					if got := normalizeReport(t, st.Result.Report); got != baseline {
						t.Errorf("report after kill-at-record-%d differs from the uninterrupted run:\ngot:  %s\nwant: %s", k, got, baseline)
					}
				})
			}

			// Torn tail: a crash mid-append leaves a partial final line. Replay
			// must drop exactly the torn line and resume from the prefix.
			t.Run("torn-tail", func(t *testing.T) {
				k := len(records) - 1
				ppath := filepath.Join(dir, fmt.Sprintf("torn-%d.journal", par))
				content := header + strings.Join(records[:k], "") + records[k][:len(records[k])/2]
				if err := os.WriteFile(ppath, []byte(content), 0o644); err != nil {
					t.Fatal(err)
				}
				jnl := openJournalT(t, ppath)
				if jnl.Counters().DroppedBytes == 0 {
					t.Error("torn tail not detected")
				}
				_, hs := newTestServer(t, cfg(jnl))
				st := pollJobDone(t, hs.URL, acc.ID)
				if got := normalizeReport(t, st.Result.Report); got != baseline {
					t.Errorf("report after torn tail differs from the uninterrupted run")
				}
			})
		})
	}
}

// TestCorruptRecordResume corrupts each record of a finished job's journal in
// turn (bit-rot, not just crash truncation) and asserts recovery: replay
// stops at the corruption, and the resumed job still reports byte-identical —
// unless the accepted record itself was lost, in which case the job is
// cleanly gone rather than wedging the server.
func TestCorruptRecordResume(t *testing.T) {
	eng := parEngine(t, 1, nil)
	dir := t.TempDir()
	reportDir := filepath.Join(dir, "reports")
	store, err := resultstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, "wapd.journal")
	jnlA := openJournalT(t, jpath)
	cfg := func(jnl *journal.Journal) Config {
		return Config{Engine: eng, Workers: 1, Journal: jnl, Store: store, ReportDir: reportDir}
	}
	_, hsA := newTestServer(t, cfg(jnlA))
	acc := postAsync(t, hsA.URL, ScanRequest{Name: "app", Files: map[string]string{"a.php": xssPage, "b.php": `<?php echo $_POST['b'];`}})
	done := pollJobDone(t, hsA.URL, acc.ID)
	baseline := normalizeReport(t, done.Result.Report)
	header, records := journalParts(t, jpath)

	for i := range records {
		t.Run(fmt.Sprintf("corrupt-record-%d-%s", i+1, recordKind(records[i])), func(t *testing.T) {
			mangled := append([]string(nil), records...)
			mangled[i] = "zz" + mangled[i][2:] // breaks the CRC framing
			ppath := filepath.Join(dir, fmt.Sprintf("corrupt-%d.journal", i))
			if err := os.WriteFile(ppath, []byte(header+strings.Join(mangled, "")), 0o644); err != nil {
				t.Fatal(err)
			}
			jnl := openJournalT(t, ppath)
			if jnl.Counters().DroppedBytes == 0 {
				t.Error("corruption not detected on replay")
			}
			_, hs := newTestServer(t, cfg(jnl))
			if i == 0 {
				// The accepted record itself is gone: nothing to resume, and
				// the server must say so rather than crash or hang.
				if code := getJSON(t, hs.URL+"/jobs/"+acc.ID, nil); code != http.StatusNotFound {
					t.Errorf("job with lost accepted record = %d, want 404", code)
				}
				return
			}
			st := pollJobDone(t, hs.URL, acc.ID)
			if got := normalizeReport(t, st.Result.Report); got != baseline {
				t.Errorf("report after corrupt record %d differs from the uninterrupted run", i+1)
			}
		})
	}
}

// recordKind extracts the kind field from a journal line for subtest names.
func recordKind(line string) string {
	var rec struct {
		Kind string `json:"kind"`
	}
	if i := strings.IndexByte(line, ' '); i > 0 {
		_ = json.Unmarshal([]byte(line[i+1:]), &rec)
	}
	if rec.Kind == "" {
		return "unknown"
	}
	return rec.Kind
}

// TestCleanDrainCompactsJournal pins the satellite: a graceful shutdown
// leaves a header-only journal (sync jobs never touch it at all), so the next
// start replays nothing.
func TestCleanDrainCompactsJournal(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "wapd.journal")
	jnl := openJournalT(t, jpath)
	s, hs := newTestServer(t, Config{Engine: testEngine(t, nil), Journal: jnl})

	// Sync jobs are not journaled: the file stays header-only.
	if resp, _ := postScan(t, hs.URL, ScanRequest{Files: map[string]string{"a.php": xssPage}}); resp.StatusCode != http.StatusOK {
		t.Fatal(resp.StatusCode)
	}
	if _, records := journalParts(t, jpath); len(records) != 0 {
		t.Errorf("sync job wrote %d journal records, want 0", len(records))
	}

	// An async job journals its lifecycle...
	acc := postAsync(t, hs.URL, ScanRequest{Files: map[string]string{"a.php": xssPage}})
	pollJobDone(t, hs.URL, acc.ID)
	if _, records := journalParts(t, jpath); len(records) == 0 {
		t.Fatal("async job wrote no journal records")
	}

	// ...and a clean drain compacts them away.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, records := journalParts(t, jpath); len(records) != 0 {
		t.Errorf("clean shutdown left %d journal records, want 0", len(records))
	}
	jnl.Close()
	jnl2, recs, err := journal.Open(jpath, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	if len(recs) != 0 {
		t.Errorf("next start replayed %d records after a clean shutdown", len(recs))
	}
}

// TestForcedDrainSuspendsDurableJob pins the other drain path: a durable
// async job cut off by the drain deadline is suspended — no done record, its
// accepted record (with the attempt folded into the resume count) survives
// compaction — and the next start resumes and finishes it.
func TestForcedDrainSuspendsDurableJob(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	var gated atomic.Bool
	gated.Store(true)
	eng := testEngine(t, func(string, vuln.ClassID) {
		if gated.Load() {
			<-gate
		}
	})
	dir := t.TempDir()
	jpath := filepath.Join(dir, "wapd.journal")
	store, err := resultstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		t.Fatal(err)
	}
	jnl := openJournalT(t, jpath)
	s, hs := newTestServer(t, Config{Engine: eng, Workers: 1, Journal: jnl, Store: store})

	acc := postAsync(t, hs.URL, ScanRequest{Name: "app", Files: map[string]string{"a.php": xssPage}})
	waitFor(t, func() bool { return s.active.Load() == 1 })

	drainCtx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Drain(drainCtx); err == nil {
		t.Fatal("forced drain returned nil")
	}
	jnl.Close()

	// The compacted journal holds exactly the suspended job's accepted
	// record, with the crashed attempt counted.
	jnl2, recs, err := journal.Open(jpath, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jnl2.Close() })
	if len(recs) != 1 || recs[0].Kind != journal.JobAccepted || recs[0].Job != acc.ID {
		t.Fatalf("compacted journal = %+v, want one accepted record for %s", recs, acc.ID)
	}

	// The next start resumes and finishes the job.
	gated.Store(false)
	s2, hs2 := newTestServer(t, Config{Engine: eng, Workers: 1, Journal: jnl2, Store: store})
	st := pollJobDone(t, hs2.URL, acc.ID)
	if st.Result == nil || st.Result.Report == nil || st.Result.Report.Vulnerabilities == 0 {
		t.Fatalf("resumed job result: %+v", st)
	}
	if st.Resumes != 1 {
		t.Errorf("resumed job reports %d resumes, want 1 (the drain-cancelled attempt)", st.Resumes)
	}
	var h health
	if code := getJSON(t, hs2.URL+"/healthz", &h); code != http.StatusOK {
		t.Fatal(code)
	}
	if h.Resumed != 1 {
		t.Errorf("health.Resumed = %d, want 1", h.Resumed)
	}
	if h.Journal == nil || h.Journal.Replayed != 1 {
		t.Errorf("health.Journal = %+v, want 1 replayed record", h.Journal)
	}
	_ = s2
}

// TestAsyncRejectionLeavesNoResumableState pins the admission compensation:
// an async job rejected with 429 must not resurrect on the next start (its
// accepted record is neutralized by a done record).
func TestAsyncRejectionLeavesNoResumableState(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	eng := testEngine(t, func(string, vuln.ClassID) { <-gate })
	dir := t.TempDir()
	jpath := filepath.Join(dir, "wapd.journal")
	jnl := openJournalT(t, jpath)
	s, hs := newTestServer(t, Config{Engine: eng, Workers: 1, QueueDepth: 1, Journal: jnl})

	// Fill the worker and the queue with gated async jobs.
	postAsync(t, hs.URL, ScanRequest{Files: map[string]string{"a.php": xssPage}})
	waitFor(t, func() bool { return s.active.Load() == 1 })
	postAsync(t, hs.URL, ScanRequest{Files: map[string]string{"a.php": xssPage}})
	waitFor(t, func() bool { return len(s.queue) == 1 })

	body, _ := json.Marshal(ScanRequest{Async: true, Files: map[string]string{"a.php": xssPage}})
	resp, err := http.Post(hs.URL+"/scan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}

	// The rejected job's journal trace must read as done: accepted + done.
	_, records := journalParts(t, jpath)
	var accepted, doneRecs int
	for _, line := range records {
		switch recordKind(line) {
		case "accepted":
			accepted++
		case "done":
			doneRecs++
		}
	}
	if accepted != 3 || doneRecs != 1 {
		t.Errorf("journal holds %d accepted / %d done records, want 3 / 1 (rejected job neutralized)", accepted, doneRecs)
	}
}

// TestDoneAsyncJobReleasesRequest pins that a finished async job keeps its
// response but not its uploaded source tree, both for a job that ran in this
// process and for a done job replayed from the journal. Suspended jobs keep
// theirs (TestForcedDrainSuspendsDurableJob resumes from it).
func TestDoneAsyncJobReleasesRequest(t *testing.T) {
	heldFiles := func(s *Server, id string) map[string]string {
		s.jobMu.Lock()
		defer s.jobMu.Unlock()
		st := s.jobs[id]
		if st == nil {
			t.Fatalf("job %s not tracked", id)
		}
		if st.status != StatusDone {
			t.Fatalf("job %s status %q, want done", id, st.status)
		}
		return st.req.Files
	}
	eng := testEngine(t, nil)

	jnl := openJournalT(t, filepath.Join(t.TempDir(), "wapd.journal"))
	s, hs := newTestServer(t, Config{Engine: eng, Workers: 1, Journal: jnl})
	acc := postAsync(t, hs.URL, ScanRequest{Name: "app", Files: map[string]string{"a.php": xssPage}})
	if st := pollJobDone(t, hs.URL, acc.ID); st.Result == nil || st.Result.Report == nil {
		t.Fatalf("done job lost its result: %+v", st)
	}
	if files := heldFiles(s, acc.ID); files != nil {
		t.Errorf("done job still holds its request files: %v", files)
	}

	// A crash after the done record: replay sees accepted then done.
	jpath := filepath.Join(t.TempDir(), "wapd.journal")
	w, _, err := journal.Open(jpath, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := ScanRequest{Name: "app", Async: true, Files: map[string]string{"a.php": xssPage}}
	if _, err := w.Append(journal.JobAccepted, "job-7", acceptedPayload{Req: req}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(journal.JobDone, "job-7", donePayload{}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	s2, _ := newTestServer(t, Config{Engine: eng, Workers: 1, Journal: openJournalT(t, jpath)})
	if files := heldFiles(s2, "job-7"); files != nil {
		t.Errorf("replayed done job still holds its request files: %v", files)
	}
}

// TestReplayedDoneJobKeepsError pins that a done job replayed from the
// journal answers with the error its done record kept — alone for a failed
// load (no report, so no artifact), next to the report artifact for a
// deadline cut-off — exactly as the process that ran the job answered.
func TestReplayedDoneJobKeepsError(t *testing.T) {
	eng := testEngine(t, func(string, vuln.ClassID) { time.Sleep(80 * time.Millisecond) })
	dir := t.TempDir()
	reportDir := filepath.Join(dir, "reports")
	jpath := filepath.Join(dir, "wapd.journal")
	_, hsA := newTestServer(t, Config{Engine: eng, Workers: 1, Journal: openJournalT(t, jpath), ReportDir: reportDir})

	files := make(map[string]string)
	for i := 0; i < 20; i++ {
		files[fmt.Sprintf("f%02d.php", i)] = xssPage
	}
	failed := pollJobDone(t, hsA.URL, postAsync(t, hsA.URL, ScanRequest{Dir: filepath.Join(dir, "missing")}).ID)
	cut := pollJobDone(t, hsA.URL, postAsync(t, hsA.URL, ScanRequest{Files: files, TimeoutMS: 150}).ID)
	if failed.Result.Error == "" || failed.Result.Report != nil {
		t.Fatalf("failed load = %+v, want an error and no report", failed.Result)
	}
	if !strings.Contains(cut.Result.Error, "deadline") || cut.Result.Report == nil {
		t.Fatalf("deadline job = %+v, want a deadline error with a partial report", cut.Result)
	}

	// A crash after both done records: replay the journal as it stands.
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	replayPath := filepath.Join(dir, "replay.journal")
	if err := os.WriteFile(replayPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, hsB := newTestServer(t, Config{Engine: eng, Workers: 1, Journal: openJournalT(t, replayPath), ReportDir: reportDir})

	var st JobStatus
	if code := getJSON(t, hsB.URL+"/jobs/"+failed.ID, &st); code != http.StatusOK {
		t.Fatalf("replayed failed job = %d", code)
	}
	if st.Status != StatusDone || st.Result == nil || st.Result.Error != failed.Result.Error || st.Result.Report != nil {
		t.Errorf("replayed failed job = %+v, want done with error %q and no report", st.Result, failed.Result.Error)
	}
	if st.Resumes != 0 {
		t.Errorf("replayed done job reports %d resumes; its one attempt finished", st.Resumes)
	}
	st = JobStatus{}
	if code := getJSON(t, hsB.URL+"/jobs/"+cut.ID, &st); code != http.StatusOK {
		t.Fatalf("replayed deadline job = %d", code)
	}
	if st.Status != StatusDone || st.Result == nil || st.Result.Error != cut.Result.Error {
		t.Fatalf("replayed deadline job = %+v, want done with error %q", st.Result, cut.Result.Error)
	}
	if st.Result.Report == nil {
		t.Fatal("replayed deadline job lost its report artifact")
	}
	if got, want := normalizeReport(t, st.Result.Report), normalizeReport(t, cut.Result.Report); got != want {
		t.Errorf("replayed report differs from the one the job answered:\ngot:  %s\nwant: %s", got, want)
	}
}
