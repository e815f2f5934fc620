package core

// Fault-injection harness: Options.TaskHook lets a test force a panic, a
// stall or a budget blowup inside chosen (file, class) tasks, exactly where
// a real parser or taint-engine bug would strike. The assertions pin down
// the isolation contract: the scan always completes, keeps every unaffected
// task's findings, and records one diagnostic per injected fault. Future
// chaos tests (sharding, service mode) reuse the same hook.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/vuln"
)

const (
	xssPage  = `<?php echo $_GET['x'];`
	sqliPage = `<?php mysql_query("SELECT * FROM t WHERE id=" . $_GET['id']);`
)

func twoFileProject() *Project {
	return LoadMap("fault", map[string]string{
		"a.php": xssPage,
		"b.php": sqliPage,
	})
}

func newTestEngine(t *testing.T, opts Options) *Engine {
	t.Helper()
	if opts.Mode == 0 {
		opts.Mode = ModeWAPe
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	e, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func diagsOfKind(rep *Report, kind DiagKind) []Diagnostic {
	var out []Diagnostic
	for _, d := range rep.Diagnostics {
		if d.Kind == kind {
			out = append(out, d)
		}
	}
	return out
}

func hasFinding(rep *Report, file string, class vuln.ClassID) bool {
	for _, f := range rep.Findings {
		if f.Candidate.File == file && f.Candidate.Class == class {
			return true
		}
	}
	return false
}

// TestPanicInOneTaskIsIsolated injects a panic into exactly one (file,
// class) task and asserts the scan still completes with findings from every
// other task plus exactly one panic diagnostic.
func TestPanicInOneTaskIsIsolated(t *testing.T) {
	for _, par := range []int{1, 4} {
		e := newTestEngine(t, Options{
			Parallelism: par,
			TaskHook: func(file string, class vuln.ClassID) {
				if file == "a.php" && class == vuln.XSSR {
					panic("injected fault")
				}
			},
		})
		rep, err := e.Analyze(twoFileProject())
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		panics := diagsOfKind(rep, DiagPanic)
		if len(panics) != 1 {
			t.Fatalf("parallelism %d: %d panic diagnostics, want 1: %v", par, len(panics), rep.Diagnostics)
		}
		d := panics[0]
		if d.File != "a.php" || d.Class != vuln.XSSR {
			t.Errorf("panic diagnostic at %s[%s], want a.php[xss-r-ish]", d.File, d.Class)
		}
		if !strings.Contains(d.Message, "injected fault") {
			t.Errorf("panic message %q does not carry the panic value", d.Message)
		}
		if d.Stack == "" {
			t.Error("panic diagnostic has no stack trace")
		}
		if len(rep.Diagnostics) != 1 {
			t.Errorf("parallelism %d: extra diagnostics: %v", par, rep.Diagnostics)
		}
		// The panicked task's findings are gone; everything else survives.
		if hasFinding(rep, "a.php", vuln.XSSR) {
			t.Error("findings from the panicked task leaked into the report")
		}
		if !hasFinding(rep, "b.php", vuln.SQLI) {
			t.Error("unaffected task b.php/sqli lost its finding")
		}
		if !rep.Degraded() {
			t.Error("report with a panic diagnostic must be Degraded")
		}
	}
}

// TestPanicRecoveryIsDeterministic runs the same faulty scan twice and
// asserts findings and diagnostics come out identical.
func TestPanicRecoveryIsDeterministic(t *testing.T) {
	scan := func() *Report {
		e := newTestEngine(t, Options{
			Parallelism: 4,
			TaskHook: func(file string, class vuln.ClassID) {
				if file == "a.php" && class == vuln.XSSR {
					panic("boom")
				}
			},
		})
		rep, err := e.Analyze(twoFileProject())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := scan(), scan()
	if len(a.Findings) != len(b.Findings) {
		t.Fatalf("finding counts differ: %d vs %d", len(a.Findings), len(b.Findings))
	}
	for i := range a.Findings {
		if a.Findings[i].Candidate.Key() != b.Findings[i].Candidate.Key() {
			t.Errorf("finding %d differs: %s vs %s", i,
				a.Findings[i].Candidate.Key(), b.Findings[i].Candidate.Key())
		}
	}
	if fmt.Sprint(describeDiags(a)) != fmt.Sprint(describeDiags(b)) {
		t.Errorf("diagnostics differ:\n%v\nvs\n%v", describeDiags(a), describeDiags(b))
	}
}

func describeDiags(rep *Report) []string {
	var out []string
	for _, d := range rep.Diagnostics {
		out = append(out, fmt.Sprintf("%s|%s|%s", d.Kind, d.File, d.Class))
	}
	return out
}

// TestStalledTaskIsCutOffAtDeadline injects a stall far beyond TaskTimeout
// and asserts the watchdog abandons the task, records a timeout diagnostic,
// and the rest of the scan is unaffected.
func TestStalledTaskIsCutOffAtDeadline(t *testing.T) {
	e := newTestEngine(t, Options{
		Parallelism: 2,
		TaskTimeout: 100 * time.Millisecond,
		TaskHook: func(file string, class vuln.ClassID) {
			if file == "a.php" && class == vuln.XSSR {
				time.Sleep(2 * time.Second)
			}
		},
	})
	// Train first: the clock times the scan, not the predictor's training.
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	rep, err := e.Analyze(twoFileProject())
	if err != nil {
		t.Fatal(err)
	}
	timeouts := diagsOfKind(rep, DiagTimeout)
	if len(timeouts) != 1 {
		t.Fatalf("%d timeout diagnostics, want 1: %v", len(timeouts), rep.Diagnostics)
	}
	d := timeouts[0]
	if d.File != "a.php" || d.Class != vuln.XSSR {
		t.Errorf("timeout diagnostic at %s[%s], want the stalled task", d.File, d.Class)
	}
	if d.Elapsed < 100*time.Millisecond {
		t.Errorf("timeout diagnostic elapsed %v, want >= deadline", d.Elapsed)
	}
	if hasFinding(rep, "a.php", vuln.XSSR) {
		t.Error("findings from the abandoned task leaked into the report")
	}
	if !hasFinding(rep, "b.php", vuln.SQLI) {
		t.Error("unaffected task lost its finding")
	}
	// The scan must not have waited out the full stall.
	if took := time.Since(start); took > 1500*time.Millisecond {
		t.Errorf("scan took %v; the stalled task was not abandoned", took)
	}
}

// TestBudgetExhaustionDegradesConservatively gives tasks a tiny step
// budget and asserts analysis completes with budget-exhausted diagnostics
// instead of hanging or crashing.
func TestBudgetExhaustionDegradesConservatively(t *testing.T) {
	// Budget 2 exhausts: the sqli page costs 3 IR-instruction steps.
	e := newTestEngine(t, Options{
		Classes:    []vuln.ClassID{vuln.SQLI},
		TaskBudget: 2,
	})
	rep, err := e.Analyze(twoFileProject())
	if err != nil {
		t.Fatal(err)
	}
	budget := diagsOfKind(rep, DiagBudget)
	if len(budget) == 0 {
		t.Fatalf("no budget-exhausted diagnostics: %v", rep.Diagnostics)
	}
	for _, d := range budget {
		if d.Class != vuln.SQLI {
			t.Errorf("budget diagnostic for class %s, want sqli", d.Class)
		}
	}
}

// TestRunawayLoopNestingIsBounded builds the evaluator's worst case — loop
// bodies are evaluated twice per nesting level, so N nested loops cost
// 2^N visits — and asserts the default budget turns the would-be hang into
// a budget-exhausted diagnostic in bounded time.
func TestRunawayLoopNestingIsBounded(t *testing.T) {
	depth := 26 // 2^26 visits ≫ DefaultTaskBudget
	var b strings.Builder
	b.WriteString("<?php\n")
	for i := 0; i < depth; i++ {
		b.WriteString("while ($c) {\n")
	}
	b.WriteString("echo $_GET['x'];\n")
	for i := 0; i < depth; i++ {
		b.WriteString("}\n")
	}
	proj := LoadMap("runaway", map[string]string{"deep.php": b.String()})
	e := newTestEngine(t, Options{Classes: []vuln.ClassID{vuln.XSSR}})
	done := make(chan *Report, 1)
	go func() {
		rep, err := e.Analyze(proj)
		if err != nil {
			t.Error(err)
		}
		done <- rep
	}()
	select {
	case rep := <-done:
		if len(diagsOfKind(rep, DiagBudget)) == 0 {
			t.Errorf("runaway walk recorded no budget diagnostic: %v", rep.Diagnostics)
		}
	case <-time.After(30 * time.Second * raceSlowdown):
		t.Fatal("analysis did not terminate: step budget is not enforced")
	}
}

// TestCancellationReturnsPartialReport cancels the scan mid-flight and
// asserts AnalyzeContext hands back the completed subset plus an honest
// scan-level diagnostic, alongside the context error.
func TestCancellationReturnsPartialReport(t *testing.T) {
	e := newTestEngine(t, Options{
		Parallelism: 1,
		// Keep the full (file, class) grid so the scan reliably outlasts
		// the context deadline below.
		DisableSinkPrefilter: true,
		TaskHook: func(string, vuln.ClassID) {
			time.Sleep(5 * time.Millisecond)
		},
	})
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	rep, err := e.AnalyzeContext(ctx, twoFileProject())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if rep == nil {
		t.Fatal("cancelled scan returned no partial report")
	}
	var scanDiag bool
	for _, d := range rep.Diagnostics {
		if d.File == "" && strings.Contains(d.Message, "cancelled") {
			scanDiag = true
		}
	}
	if !scanDiag {
		t.Errorf("no scan-level cancellation diagnostic: %v", rep.Diagnostics)
	}
}

// TestAnalyzeContextPreCancelled asserts an already-dead context fails fast.
func TestAnalyzeContextPreCancelled(t *testing.T) {
	e := newTestEngine(t, Options{})
	if err := e.Train(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.AnalyzeContext(ctx, twoFileProject()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestParseDegradedDiagnosticFlowsIntoReport checks the parser's nesting
// bound surfaces as a parse-degraded diagnostic on the final report.
func TestParseDegradedDiagnosticFlowsIntoReport(t *testing.T) {
	src := "<?php $x = " + strings.Repeat("(", 2000) + "1" + strings.Repeat(")", 2000) + ";"
	proj := LoadMap("deep", map[string]string{"nest.php": src, "ok.php": sqliPage})
	if len(proj.Diagnostics) == 0 {
		t.Fatal("project recorded no diagnostics for a degraded parse")
	}
	e := newTestEngine(t, Options{Classes: []vuln.ClassID{vuln.SQLI}})
	rep, err := e.Analyze(proj)
	if err != nil {
		t.Fatal(err)
	}
	degraded := diagsOfKind(rep, DiagParseDegraded)
	if len(degraded) != 1 || degraded[0].File != "nest.php" {
		t.Fatalf("parse-degraded diagnostics = %v, want one for nest.php", degraded)
	}
	if !hasFinding(rep, "ok.php", vuln.SQLI) {
		t.Error("healthy file lost its finding next to a degraded one")
	}
}

// TestNoFaultsMeansNoDiagnostics pins the clean-path contract: a healthy
// scan reports zero diagnostics and Degraded() == false.
func TestNoFaultsMeansNoDiagnostics(t *testing.T) {
	e := newTestEngine(t, Options{})
	rep, err := e.Analyze(twoFileProject())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded() || len(rep.Diagnostics) != 0 {
		t.Errorf("clean scan degraded: %v", rep.Diagnostics)
	}
	if n := rep.DiagnosticsByKind(); len(n) != 0 {
		t.Errorf("DiagnosticsByKind = %v, want empty", n)
	}
}
