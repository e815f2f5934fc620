package core

// Retry-ladder and circuit-breaker coverage, built on the same TaskHook
// fault-injection harness as faultinject_test.go. The contracts pinned
// here: a watchdog timeout costs a retry, not findings; a panic or a budget
// exhaustion settles on its first attempt; a persistent fault trips the
// class's breaker without touching other classes, and a budget exhaustion
// never does; and on a fault-free corpus the ladder is invisible
// (identical reports at any RetryMax).

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

	"repro/internal/breaker"
	"repro/internal/vuln"
)

// TestPanicIsNotRetried injects a panic into the first attempt of one task
// with the ladder armed and asserts the panic is terminal at once: a task's
// analysis is a pure function of its input, so a rerun could only hide a
// data race. The hook runs once and the diagnostic carries no retries.
func TestPanicIsNotRetried(t *testing.T) {
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
					panic("first-attempt fault")
				}
			},
		})
		rep, err := e.Analyze(twoFileProject())
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if n := attempts.Load(); n != 1 {
			t.Errorf("parallelism %d: faulted task ran %d times, want 1", par, n)
		}
		panics := diagsOfKind(rep, DiagPanic)
		if len(panics) != 1 {
			t.Fatalf("parallelism %d: %d panic diagnostics, want 1: %v", par, len(panics), rep.Diagnostics)
		}
		d := panics[0]
		if d.File != "a.php" || d.Class != vuln.XSSR {
			t.Errorf("panic diagnostic at %s[%s], want a.php[xss-r]", d.File, d.Class)
		}
		if d.Retries != 0 {
			t.Errorf("panic diagnostic Retries = %d, want 0", d.Retries)
		}
		if len(diagsOfKind(rep, DiagRetried)) != 0 {
			t.Errorf("parallelism %d: a panic was retried: %v", par, rep.Diagnostics)
		}
		if hasFinding(rep, "a.php", vuln.XSSR) {
			t.Errorf("parallelism %d: findings from the panicked task leaked", par)
		}
		if !hasFinding(rep, "b.php", vuln.SQLI) {
			t.Errorf("parallelism %d: unaffected task lost its finding", par)
		}
		if !rep.Degraded() {
			t.Errorf("parallelism %d: a terminal panic must degrade the report", par)
		}
		if rep.Stats.TaskRetries != 0 || rep.Stats.TasksRecovered != 0 {
			t.Errorf("parallelism %d: stats retries/recovered = %d/%d, want 0/0",
				par, rep.Stats.TaskRetries, rep.Stats.TasksRecovered)
		}
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

// TestPersistentFaultIsTerminalAfterLadder keeps one task panicking with
// the ladder armed and asserts exactly one terminal diagnostic, with no
// retries spent on it — and no findings from the faulted task.
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
	if panics[0].Retries != 0 {
		t.Errorf("terminal diagnostic Retries = %d, want 0", panics[0].Retries)
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
	if rep.Stats.TaskRetries != 0 || rep.Stats.TasksRecovered != 0 {
		t.Errorf("stats retries/recovered = %d/%d, want 0/0",
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
	if st := e.BreakerSnapshot()[vuln.XSSR]; st.State != breaker.Open {
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
	if st := e.BreakerSnapshot()[vuln.XSSR]; st.State != breaker.Open {
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
	if st := e.BreakerSnapshot()[vuln.XSSR]; st.State != breaker.Closed {
		t.Errorf("breaker state = %s, want closed after successful probe", st.State)
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

// TestBudgetExhaustionIsNotAFault scans five files whose 18 nested loops
// exhaust a small step budget next to one trivial file. Exhaustion is a
// property of the input, not of the host, so each deep task settles on its
// first attempt with its sound partial findings: nothing is retried, no
// class breaker is charged, and the trivial file keeps its finding. A
// second scan on the same engine reports the same.
func TestBudgetExhaustionIsNotAFault(t *testing.T) {
	var deep strings.Builder
	deep.WriteString("<?php\n")
	for i := 0; i < 18; i++ {
		deep.WriteString("while ($c) {\n")
	}
	deep.WriteString("echo $_GET['x'];\n")
	for i := 0; i < 18; i++ {
		deep.WriteString("}\n")
	}
	files := map[string]string{"z.php": `<?php echo $_GET['y'];`}
	for _, f := range []string{"a.php", "b.php", "c.php", "d.php", "e.php"} {
		files[f] = deep.String()
	}
	for _, retryMax := range []int{0, 2} {
		e := newTestEngine(t, Options{
			Parallelism:          1,
			Classes:              []vuln.ClassID{vuln.XSSR},
			TaskBudget:           20000,
			BreakerThreshold:     5,
			BreakerCooldown:      time.Hour,
			RetryMax:             retryMax,
			RetryBackoff:         -1,
			DisableSinkPrefilter: true,
		})
		var first string
		for scan := 1; scan <= 2; scan++ {
			rep, err := e.Analyze(LoadMap("budget", files))
			if err != nil {
				t.Fatal(err)
			}
			if !hasFinding(rep, "z.php", vuln.XSSR) {
				t.Errorf("RetryMax %d, scan %d: z.php lost its finding: %v", retryMax, scan, describeDiags(rep))
			}
			if n := len(diagsOfKind(rep, DiagBreakerOpen)); n != 0 {
				t.Errorf("RetryMax %d, scan %d: %d breaker-open diagnostics, want 0", retryMax, scan, n)
			}
			budget := diagsOfKind(rep, DiagBudget)
			if n := len(budget); n != 5 {
				t.Errorf("RetryMax %d, scan %d: %d budget diagnostics, want 5: %v", retryMax, scan, n, describeDiags(rep))
			}
			for _, d := range budget {
				if d.Retries != 0 {
					t.Errorf("RetryMax %d, scan %d: %s budget diagnostic Retries = %d, want 0", retryMax, scan, d.File, d.Retries)
				}
				if !hasFinding(rep, d.File, vuln.XSSR) {
					t.Errorf("RetryMax %d, scan %d: exhausted %s lost its partial finding", retryMax, scan, d.File)
				}
			}
			if rep.Stats.TaskRetries != 0 {
				t.Errorf("RetryMax %d, scan %d: TaskRetries = %d, want 0", retryMax, scan, rep.Stats.TaskRetries)
			}
			got := canonicalReport(rep)
			if scan == 1 {
				first = got
			} else if got != first {
				t.Errorf("RetryMax %d: second scan differs:\n--- first ---\n%s\n--- second ---\n%s", retryMax, first, got)
			}
		}
	}
}
