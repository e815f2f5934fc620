package core

// Retry-ladder and circuit-breaker coverage, built on the same TaskHook
// fault-injection harness as faultinject_test.go. The contracts pinned
// here: a transient fault costs a retry, not findings; a persistent fault
// is terminal after the ladder and trips the class's breaker without
// touching other classes; and on a fault-free corpus the ladder is
// invisible (identical reports at any RetryMax).

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vuln"
)

// TestTransientPanicIsRecoveredByRetryLadder injects a panic into the first
// attempt of one task and asserts the retry recovers its findings, records
// an informational retried diagnostic, and leaves the report undegraded.
func TestTransientPanicIsRecoveredByRetryLadder(t *testing.T) {
	for _, par := range []int{1, 4} {
		var attempts atomic.Int64
		e := newTestEngine(t, Options{
			Parallelism: par,
			// Two classes with disjoint sinks keep every file a one-lane
			// unit, so the fault lands on the ladder of the task it hits. (A
			// fault in a multi-lane pass splits the set and reruns the same
			// attempt per lane; see fusedfault_test.go.)
			Classes:      []vuln.ClassID{vuln.SQLI, vuln.XSSR},
			RetryMax:     2,
			RetryBackoff: -1, // no sleep in tests
			TaskHook: func(file string, class vuln.ClassID) {
				if file == "a.php" && class == vuln.XSSR && attempts.Add(1) == 1 {
					panic("transient fault")
				}
			},
		})
		rep, err := e.Analyze(twoFileProject())
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !hasFinding(rep, "a.php", vuln.XSSR) {
			t.Errorf("parallelism %d: retried task lost its finding", par)
		}
		retried := diagsOfKind(rep, DiagRetried)
		if len(retried) != 1 {
			t.Fatalf("parallelism %d: %d retried diagnostics, want 1: %v", par, len(retried), rep.Diagnostics)
		}
		d := retried[0]
		if d.File != "a.php" || d.Class != vuln.XSSR {
			t.Errorf("retried diagnostic at %s[%s], want a.php[xss-r]", d.File, d.Class)
		}
		if d.Retries != 1 {
			t.Errorf("retried diagnostic Retries = %d, want 1", d.Retries)
		}
		if !strings.Contains(d.Message, "recovered") {
			t.Errorf("retried message %q does not describe the recovery", d.Message)
		}
		if len(diagsOfKind(rep, DiagPanic)) != 0 {
			t.Errorf("recovered fault still produced a panic diagnostic: %v", rep.Diagnostics)
		}
		// A recovered fault is informational: full coverage, not degraded.
		if rep.Degraded() {
			t.Error("report with only a retried diagnostic must not be Degraded")
		}
		if rep.Stats.TaskRetries != 1 || rep.Stats.TasksRecovered != 1 {
			t.Errorf("stats retries/recovered = %d/%d, want 1/1",
				rep.Stats.TaskRetries, rep.Stats.TasksRecovered)
		}
		attempts.Store(0)
	}
}

// TestTransientStallIsRecoveredByRetryLadder stalls the first attempt past
// the watchdog deadline and asserts the retry (which runs fast) recovers
// the findings instead of abandoning them.
func TestTransientStallIsRecoveredByRetryLadder(t *testing.T) {
	var attempts atomic.Int64
	e := newTestEngine(t, Options{
		Parallelism:  2,
		Classes:      []vuln.ClassID{vuln.SQLI, vuln.XSSR}, // one-lane units; see above
		TaskTimeout:  100 * time.Millisecond,
		RetryMax:     1,
		RetryBackoff: -1,
		TaskHook: func(file string, class vuln.ClassID) {
			if file == "a.php" && class == vuln.XSSR && attempts.Add(1) == 1 {
				time.Sleep(2 * time.Second)
			}
		},
	})
	rep, err := e.Analyze(twoFileProject())
	if err != nil {
		t.Fatal(err)
	}
	if !hasFinding(rep, "a.php", vuln.XSSR) {
		t.Error("stalled-then-fast task lost its finding")
	}
	if n := len(diagsOfKind(rep, DiagTimeout)); n != 0 {
		t.Errorf("%d timeout diagnostics after recovery, want 0: %v", n, rep.Diagnostics)
	}
	if n := len(diagsOfKind(rep, DiagRetried)); n != 1 {
		t.Errorf("%d retried diagnostics, want 1: %v", n, rep.Diagnostics)
	}
	if rep.Degraded() {
		t.Error("recovered stall must not degrade the report")
	}
}

// TestPersistentFaultIsTerminalAfterLadder keeps one task faulting through
// every retry and asserts exactly one terminal diagnostic carrying the
// retry count — and no findings from the faulted task.
func TestPersistentFaultIsTerminalAfterLadder(t *testing.T) {
	e := newTestEngine(t, Options{
		Parallelism:  1,
		RetryMax:     2,
		RetryBackoff: -1,
		TaskHook: func(file string, class vuln.ClassID) {
			if file == "a.php" && class == vuln.XSSR {
				panic("persistent fault")
			}
		},
	})
	rep, err := e.Analyze(twoFileProject())
	if err != nil {
		t.Fatal(err)
	}
	panics := diagsOfKind(rep, DiagPanic)
	if len(panics) != 1 {
		t.Fatalf("%d panic diagnostics, want 1: %v", len(panics), rep.Diagnostics)
	}
	if panics[0].Retries != 2 {
		t.Errorf("terminal diagnostic Retries = %d, want 2", panics[0].Retries)
	}
	if len(diagsOfKind(rep, DiagRetried)) != 0 {
		t.Errorf("terminal fault produced a retried diagnostic: %v", rep.Diagnostics)
	}
	if hasFinding(rep, "a.php", vuln.XSSR) {
		t.Error("findings from the persistently faulted task leaked")
	}
	if !hasFinding(rep, "b.php", vuln.SQLI) {
		t.Error("unaffected task lost its finding")
	}
	if !rep.Degraded() {
		t.Error("terminal fault must degrade the report")
	}
	if rep.Stats.TaskRetries != 2 || rep.Stats.TasksRecovered != 0 {
		t.Errorf("stats retries/recovered = %d/%d, want 2/0",
			rep.Stats.TaskRetries, rep.Stats.TasksRecovered)
	}
}

// canonicalReport flattens the parts of a report that must be identical
// across robustness configurations (findings, their predictions, the
// diagnostics) — everything except the schedule-dependent Stats/Duration.
func canonicalReport(rep *Report) string {
	var b strings.Builder
	for _, f := range rep.Findings {
		fmt.Fprintf(&b, "%s|%v|%v|%s\n", f.Candidate.Key(), f.PredictedFP, f.Votes, f.Weapon)
	}
	for _, d := range rep.Diagnostics {
		fmt.Fprintf(&b, "%s|%s|%s|%d\n", d.Kind, d.File, d.Class, d.Retries)
	}
	fmt.Fprintf(&b, "links=%d", len(rep.StoredLinks))
	return b.String()
}

// TestRetryLadderInvisibleOnFaultFreeCorpus pins the identity contract: on
// a corpus with no faults, reports are identical with the ladder and
// breakers off, and with both armed at any budget of retries.
func TestRetryLadderInvisibleOnFaultFreeCorpus(t *testing.T) {
	proj := twoFileProject()
	scan := func(opts Options) string {
		opts.Parallelism = 4
		rep, err := newTestEngine(t, opts).Analyze(proj)
		if err != nil {
			t.Fatal(err)
		}
		return canonicalReport(rep)
	}
	base := scan(Options{})
	armed := scan(Options{RetryMax: 3, BreakerThreshold: 2, BreakerCooldown: time.Minute})
	if base != armed {
		t.Errorf("fault-free reports differ with robustness armed:\n--- off ---\n%s\n--- on ---\n%s", base, armed)
	}
}

// breakerProject has four XSS files (four xss-r tasks to fault) plus one
// SQLI file that must stay unaffected by the tripped breaker.
func breakerProject() *Project {
	return LoadMap("breaker", map[string]string{
		"a.php": xssPage,
		"b.php": xssPage,
		"c.php": xssPage,
		"d.php": xssPage,
		"q.php": sqliPage,
	})
}

// TestPersistentClassFaultTripsBreaker faults every xss-r task and asserts
// the breaker opens at the threshold: later tasks of the class are skipped
// with breaker-open diagnostics (and without running), while the sqli
// class keeps its findings. A second scan on the same engine starts with
// the breaker already open — the state survives across jobs.
func TestPersistentClassFaultTripsBreaker(t *testing.T) {
	var hookRuns atomic.Int64
	e := newTestEngine(t, Options{
		Parallelism:      1, // deterministic task order: breaker trips mid-scan
		Classes:          []vuln.ClassID{vuln.SQLI, vuln.XSSR},
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
		TaskHook: func(file string, class vuln.ClassID) {
			if class == vuln.XSSR {
				hookRuns.Add(1)
				panic("class-wide fault")
			}
		},
	})
	rep, err := e.Analyze(breakerProject())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(diagsOfKind(rep, DiagPanic)); got != 2 {
		t.Errorf("%d panic diagnostics, want 2 (the threshold): %v", got, rep.Diagnostics)
	}
	if got := len(diagsOfKind(rep, DiagBreakerOpen)); got != 2 {
		t.Errorf("%d breaker-open diagnostics, want 2: %v", got, rep.Diagnostics)
	}
	for _, d := range diagsOfKind(rep, DiagBreakerOpen) {
		if d.Class != vuln.XSSR {
			t.Errorf("breaker-open diagnostic for class %s, want xss-r only", d.Class)
		}
	}
	if hookRuns.Load() != 2 {
		t.Errorf("faulting class ran %d tasks, want 2: breaker-open tasks must not execute", hookRuns.Load())
	}
	if !hasFinding(rep, "q.php", vuln.SQLI) {
		t.Error("unrelated class lost its finding while the breaker tripped")
	}
	if st := e.BreakerSnapshot()[vuln.XSSR]; st.State != BreakerOpen {
		t.Errorf("breaker state = %s, want open", st.State)
	}

	// Second job on the same engine: the breaker is already open, so every
	// xss-r task is skipped without a single execution.
	rep2, err := e.Analyze(breakerProject())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(diagsOfKind(rep2, DiagBreakerOpen)); got != 4 {
		t.Errorf("second job: %d breaker-open diagnostics, want 4: %v", got, rep2.Diagnostics)
	}
	if hookRuns.Load() != 2 {
		t.Errorf("open breaker still executed tasks (hook ran %d times, want 2)", hookRuns.Load())
	}
	if rep2.Stats.BreakerSkipped != 4 {
		t.Errorf("stats BreakerSkipped = %d, want 4", rep2.Stats.BreakerSkipped)
	}
}

// TestBreakerRecoversAfterCooldown trips the breaker, waits out the
// cool-down, stops injecting the fault, and asserts the half-open probe
// closes the breaker and findings for the class come back.
func TestBreakerRecoversAfterCooldown(t *testing.T) {
	var faulting atomic.Bool
	faulting.Store(true)
	e := newTestEngine(t, Options{
		Parallelism:      1,
		Classes:          []vuln.ClassID{vuln.SQLI, vuln.XSSR},
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
		TaskHook: func(file string, class vuln.ClassID) {
			if class == vuln.XSSR && faulting.Load() {
				panic("class-wide fault")
			}
		},
	})
	if _, err := e.Analyze(breakerProject()); err != nil {
		t.Fatal(err)
	}
	if st := e.BreakerSnapshot()[vuln.XSSR]; st.State != BreakerOpen {
		t.Fatalf("breaker state = %s, want open", st.State)
	}

	// Heal the class and wait out the cool-down: the next scan's first
	// xss-r task runs as the half-open probe, succeeds, and closes the
	// breaker for the rest of the scan.
	faulting.Store(false)
	time.Sleep(60 * time.Millisecond)
	rep, err := e.Analyze(breakerProject())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded() {
		t.Errorf("healed class still degraded: %v", rep.Diagnostics)
	}
	for _, f := range []string{"a.php", "b.php", "c.php", "d.php"} {
		if !hasFinding(rep, f, vuln.XSSR) {
			t.Errorf("finding for %s missing after breaker recovery", f)
		}
	}
	if st := e.BreakerSnapshot()[vuln.XSSR]; st.State != BreakerClosed {
		t.Errorf("breaker state = %s, want closed after successful probe", st.State)
	}
}

// TestBreakerHalfOpenProbeFailureReopens drives the state machine directly:
// a failed probe re-opens the breaker for a fresh cool-down.
func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	b := newClassBreakers(2, time.Minute)
	now := time.Unix(1000, 0)
	b.now = func() time.Time { return now }

	id := vuln.XSSR
	if ok, probe := b.allow(id); !ok || probe {
		t.Fatalf("closed breaker: allow = %v, %v", ok, probe)
	}
	b.recordFault(id, false)
	b.recordFault(id, false)
	if ok, _ := b.allow(id); ok {
		t.Fatal("breaker did not open at the threshold")
	}

	// Cool-down passes: exactly one probe is admitted; a second concurrent
	// task of the class is still skipped.
	now = now.Add(2 * time.Minute)
	ok, probe := b.allow(id)
	if !ok || !probe {
		t.Fatalf("after cool-down: allow = %v, %v, want probe", ok, probe)
	}
	if ok, _ := b.allow(id); ok {
		t.Fatal("second task admitted while the probe is in flight")
	}
	// The probe fails: re-open, full cool-down again.
	b.recordFault(id, true)
	if st := b.snapshot()[id]; st.State != BreakerOpen {
		t.Fatalf("state after failed probe = %s, want open", st.State)
	}
	if ok, _ := b.allow(id); ok {
		t.Fatal("breaker admitted a task right after a failed probe")
	}
	// Next cool-down, successful probe: closed for good.
	now = now.Add(2 * time.Minute)
	if ok, probe := b.allow(id); !ok || !probe {
		t.Fatal("no probe after second cool-down")
	}
	b.recordSuccess(id, true)
	if st := b.snapshot()[id]; st.State != BreakerClosed {
		t.Fatalf("state after successful probe = %s, want closed", st.State)
	}
}

// TestLoadDirContextStopsOnCancellation asserts a dead context aborts the
// directory walk instead of parsing the whole tree.
func TestLoadDirContextStopsOnCancellation(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 5; i++ {
		path := filepath.Join(dir, fmt.Sprintf("f%d.php", i))
		if err := os.WriteFile(path, []byte(xssPage), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := LoadDirContext(ctx, "dead", dir, LoadOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// A live context loads normally through the same path.
	proj, err := LoadDirContext(context.Background(), "live", dir, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(proj.Files) != 5 {
		t.Errorf("loaded %d files, want 5", len(proj.Files))
	}
}
